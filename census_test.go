package maqs_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The census: which internal packages and exported names the rest of the
// tree actually uses, read from the source with go/parser alone. Every Go
// file of the repository counts as a user, the nested benchmark/ module
// included (it imports maqs/internal/...); _test.go files do not, because
// an export that only its own tests call is dead weight that the tests keep
// alive.

// sourceFile is one parsed Go file of the repository.
type sourceFile struct {
	dir  string // slash-separated, relative to the repository root
	test bool
	ast  *ast.File
}

// importPath maps a repository directory to its import path; the nested
// benchmark module (maqs/benchmark) follows the same layout.
func importPath(dir string) string {
	if dir == "." {
		return "maqs"
	}
	return "maqs/" + dir
}

// parseTree parses every Go file under the repository root, skipping
// hidden directories and testdata (which the go tool ignores too).
func parseTree(t *testing.T) []sourceFile {
	t.Helper()
	var files []sourceFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, sourceFile{
			dir:  filepath.ToSlash(filepath.Dir(p)),
			test: strings.HasSuffix(name, "_test.go"),
			ast:  f,
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// internalPackages returns the package name of every directory under
// internal/ that holds non-test Go files.
func internalPackages(files []sourceFile) map[string]string {
	pkgs := map[string]string{}
	for _, f := range files {
		if !f.test && strings.HasPrefix(f.dir, "internal/") {
			pkgs[f.dir] = f.ast.Name.Name
		}
	}
	return pkgs
}

func TestNoOrphanPackages(t *testing.T) {
	files := parseTree(t)
	imported := map[string]bool{}
	for _, f := range files {
		if f.test {
			continue
		}
		for _, spec := range f.ast.Imports {
			p, _ := strconv.Unquote(spec.Path.Value)
			if p != importPath(f.dir) {
				imported[p] = true
			}
		}
	}
	for dir, name := range internalPackages(files) {
		if name != "main" && !imported[importPath(dir)] {
			t.Errorf("%s: no non-test file outside the package imports it", dir)
		}
	}
}

// stdInterfaceMethods are methods through which the standard library calls
// a type (error, fmt.Stringer, json.Marshaler, io.*, net.Conn,
// net.Listener, http.Handler, sort.Interface, flag.Value): implementing
// them is the point even when nothing in the tree names them.
var stdInterfaceMethods = map[string]bool{
	"Error": true, "Unwrap": true, "Is": true, "As": true, "Timeout": true, "Temporary": true,
	"String": true, "GoString": true, "Format": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Read": true, "Write": true, "Close": true, "ReadFrom": true, "WriteTo": true,
	"LocalAddr": true, "RemoteAddr": true, "SetDeadline": true, "SetReadDeadline": true, "SetWriteDeadline": true,
	"Accept": true, "Addr": true, "Network": true,
	"ServeHTTP": true, "Len": true, "Less": true, "Swap": true, "Set": true,
}

// export is one exported top-level declaration of a package: its name,
// "pkgpath.Name" for funcs, types, vars and consts and
// "pkgpath.Type.Method" for methods of exported types, and the names of
// the package's exported types its signature or type definition
// mentions (a method also mentions its receiver).
type export struct {
	name string
	refs []string
	// enumOf is the package's exported type a constant is declared
	// with: a used type reaches its enumeration (cdr.Kind → cdr.KindChar).
	enumOf string
}

// exportedDecls lists the exported declarations of one package file.
func exportedDecls(dir string, f *ast.File) []export {
	var out []export
	qualify := func(parts ...string) string { return importPath(dir) + "." + strings.Join(parts, ".") }
	refs := func(n ast.Node) []string {
		var names []string
		ast.Inspect(n, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				return false // another package's name
			case *ast.Ident:
				if x.IsExported() {
					names = append(names, qualify(x.Name))
				}
			}
			return true
		})
		return names
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv == nil {
				out = append(out, export{name: qualify(d.Name.Name), refs: refs(d.Type)})
				continue
			}
			if recv := receiverType(d.Recv.List[0].Type); ast.IsExported(recv) {
				out = append(out, export{name: qualify(recv, d.Name.Name), refs: append(refs(d.Type), qualify(recv))})
			}
		case *ast.GenDecl:
			var typ ast.Expr
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						out = append(out, export{name: qualify(s.Name.Name), refs: refs(s.Type)})
					}
				case *ast.ValueSpec:
					// A const spec that omits type and value repeats the
					// previous one's (iota enumerations).
					if s.Type != nil || len(s.Values) > 0 {
						typ = s.Type
					}
					for _, n := range s.Names {
						if !n.IsExported() {
							continue
						}
						e := export{name: qualify(n.Name)}
						if typ != nil {
							e.refs = refs(typ)
							if id, ok := typ.(*ast.Ident); ok && d.Tok == token.CONST && id.IsExported() {
								e.enumOf = qualify(id.Name)
							}
						}
						out = append(out, e)
					}
				}
			}
		}
	}
	return out
}

// receiverType strips pointers and type parameters from a receiver.
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// usage is what the non-test files of the tree name: package-qualified
// identifiers ("pkgpath.Name"), and for every other selector the
// directories that select that name. The parser cannot tell receivers
// apart, so a method counts as used when any file outside its package
// selects its name: the check can miss an unused method, never flag a
// used one.
type usage struct {
	qualified map[string]bool
	selectors map[string]map[string]bool
	// interfaceMethods are the method names some interface type of the
	// tree declares; a method of that name may be called only through
	// the interface.
	interfaceMethods map[string]bool
}

func collectUsage(files []sourceFile) usage {
	pkgName := map[string]string{}
	for _, f := range files {
		if !f.test {
			pkgName[importPath(f.dir)] = f.ast.Name.Name
		}
	}
	u := usage{qualified: map[string]bool{}, selectors: map[string]map[string]bool{}, interfaceMethods: map[string]bool{}}
	for _, f := range files {
		if f.test {
			continue
		}
		imports := map[string]string{} // local name → import path
		for _, spec := range f.ast.Imports {
			p, _ := strconv.Unquote(spec.Path.Value)
			local := pkgName[p]
			if local == "" {
				local = path.Base(p)
			}
			if spec.Name != nil {
				local = spec.Name.Name
			}
			imports[local] = p
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := x.X.(*ast.Ident); ok {
					if p, ok := imports[id.Name]; ok {
						u.qualified[p+"."+x.Sel.Name] = true
						return true
					}
				}
				if u.selectors[x.Sel.Name] == nil {
					u.selectors[x.Sel.Name] = map[string]bool{}
				}
				u.selectors[x.Sel.Name][f.dir] = true
			case *ast.InterfaceType:
				for _, m := range x.Methods.List {
					for _, name := range m.Names {
						u.interfaceMethods[name.Name] = true
					}
				}
			}
			return true
		})
	}
	return u
}

// interfaceMethod reports whether name ("pkgpath.Type.Method") is a
// method some interface may call: never flagged, but no evidence either
// that its type is used (every type with a String method would be).
func (u usage) interfaceMethod(name string) bool {
	parts := strings.Split(name[strings.LastIndex(name, "/")+1:], ".")
	return len(parts) == 3 && (stdInterfaceMethods[parts[2]] || u.interfaceMethods[parts[2]])
}

// used reports whether an exported name declared in dir is named by a
// non-test file outside it.
func (u usage) used(dir, name string) bool {
	rest := strings.TrimPrefix(name, importPath(dir)+".")
	_, method, isMethod := strings.Cut(rest, ".")
	if !isMethod {
		return u.qualified[name]
	}
	for d := range u.selectors[method] {
		if d != dir {
			return true
		}
	}
	return false
}

// unusedExportsAllowList is the committed list of exports the census
// tolerates, one "name  # reason" per line. It may only shrink: an entry
// the census no longer flags fails the test until it is removed.
const unusedExportsAllowList = "testdata/unused_exports.txt"

func readAllowList(t *testing.T) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(unusedExportsAllowList)
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{}
	for i, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, "#")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s:%d: %s has no reason", unusedExportsAllowList, i+1, name)
		}
		allowed[strings.TrimSpace(name)] = true
	}
	return allowed
}

func TestNoUnusedExports(t *testing.T) {
	files := parseTree(t)
	u := collectUsage(files)
	pkgs := internalPackages(files)
	allowed := readAllowList(t)

	// An exported type that a used declaration's signature or type
	// mentions is part of that declaration's surface even when no caller
	// spells its name (orb.ORB.Adapter returns an *orb.Adapter): mark
	// used names, then everything they mention, to a fixed point.
	decls := map[string]export{}
	var work []string
	for _, f := range files {
		if f.test || pkgs[f.dir] == "" || pkgs[f.dir] == "main" {
			continue
		}
		for _, d := range exportedDecls(f.dir, f.ast) {
			decls[d.name] = d
			if !u.interfaceMethod(d.name) && u.used(f.dir, d.name) {
				work = append(work, d.name)
			}
		}
	}
	for name, d := range decls {
		if t, ok := decls[d.enumOf]; ok {
			t.refs = append(t.refs, name)
			decls[d.enumOf] = t
		}
	}
	reached := map[string]bool{}
	for len(work) > 0 {
		name := work[len(work)-1]
		work = work[:len(work)-1]
		if reached[name] {
			continue
		}
		reached[name] = true
		work = append(work, decls[name].refs...)
	}

	unused := map[string]bool{}
	for name := range decls {
		if !reached[name] && !u.interfaceMethod(name) {
			unused[name] = true
		}
	}
	for _, name := range sortedKeys(unused) {
		if !allowed[name] {
			t.Errorf("%s: exported, but no non-test file outside its package names it (delete it, unexport it, or list it in %s with a reason)",
				name, unusedExportsAllowList)
		}
	}
	for name := range allowed {
		if !unused[name] {
			t.Errorf("%s: listed in %s but used (or gone); remove the entry", name, unusedExportsAllowList)
		}
	}
}

// metricName matches a metric name (or a name prefix ending in "_") in
// Go string literals and in docs/OBSERVABILITY.md.
var metricName = regexp.MustCompile(`maqs_[a-z0-9_]+`)

// metricNameCovers reports whether name is spelled by one of names: the
// same name, or a prefix ("maqs_client_") that one side composes the
// rest of at run time.
func metricNameCovers(names map[string]bool, name string) bool {
	for n := range names {
		if n == name || strings.HasSuffix(n, "_") && strings.HasPrefix(name, n) ||
			strings.HasSuffix(name, "_") && strings.HasPrefix(n, name) {
			return true
		}
	}
	return false
}

// TestObservabilityDocNamesMetrics holds docs/OBSERVABILITY.md and the
// code to one set of metric names: every maqs_* name the doc mentions is
// a string literal (or a literal prefix) in non-test Go outside the
// benchmark harness, and every such literal is in the doc.
func TestObservabilityDocNamesMetrics(t *testing.T) {
	doc, err := os.ReadFile("docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, n := range metricName.FindAllString(string(doc), -1) {
		documented[seriesFamily(n)] = true
	}
	inCode := map[string]bool{}
	for _, f := range parseTree(t) {
		if f.test || f.dir == "benchmark" || strings.HasPrefix(f.dir, "benchmark/") {
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				for _, name := range metricName.FindAllString(lit.Value, -1) {
					inCode[seriesFamily(name)] = true
				}
			}
			return true
		})
	}
	for _, n := range sortedKeys(documented) {
		if !metricNameCovers(inCode, n) {
			t.Errorf("docs/OBSERVABILITY.md names %s, which no non-test Go string spells", n)
		}
	}
	for _, n := range sortedKeys(inCode) {
		if !metricNameCovers(documented, n) {
			t.Errorf("%s is a metric name in the code but docs/OBSERVABILITY.md does not mention it", n)
		}
	}
}

// seriesFamily strips the suffixes Prometheus exposes a histogram's
// series under.
func seriesFamily(name string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		name = strings.TrimSuffix(name, suffix)
	}
	return name
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
