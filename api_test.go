package maqs_test

import (
	"go/ast"
	"go/printer"
	"go/token"
	"os"
	"sort"
	"strings"
	"testing"
)

// apiGolden pins the facade, in the style of Go's api/ files: one line per
// exported declaration of package maqs (aliases, vars, consts, funcs, the
// methods of its types and the fields of its structs), sorted.
const apiGolden = "testdata/api.txt"

// TestAPIGolden regenerates the facade's API listing from the source and
// compares it with the committed one, so a change to what package maqs
// exports is a visible change to testdata/api.txt. On a mismatch it prints
// the listing the tree has now.
func TestAPIGolden(t *testing.T) {
	var lines []string
	for _, f := range parseTree(t) {
		if f.dir == "." && !f.test {
			lines = append(lines, apiLines(f.fset, f.ast)...)
		}
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"
	want, err := os.ReadFile(apiGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("the facade's exported declarations differ from %s; if the change is meant, replace its content with:\n%s", apiGolden, got)
	}
}

// apiLines renders the exported declarations of one file with go/printer.
func apiLines(fset *token.FileSet, f *ast.File) []string {
	var out []string
	add := func(parts ...any) {
		var b strings.Builder
		b.WriteString("pkg maqs, ")
		for _, p := range parts {
			switch p := p.(type) {
			case string:
				b.WriteString(p)
			case ast.Node:
				if err := printer.Fprint(&b, fset, p); err != nil {
					panic(err)
				}
			}
		}
		out = append(out, b.String())
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Recv != nil && !ast.IsExported(receiverType(d.Recv.List[0].Type)) {
				continue
			}
			add(&ast.FuncDecl{Recv: d.Recv, Name: d.Name, Type: d.Type})
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if !s.Name.IsExported() {
						continue
					}
					st, isStruct := s.Type.(*ast.StructType)
					switch {
					case s.Assign.IsValid():
						add("type ", s.Name.Name, " = ", s.Type)
					case isStruct:
						add("type ", s.Name.Name, " struct")
						for _, field := range st.Fields.List {
							if len(field.Names) == 0 {
								add("type ", s.Name.Name, " struct, embedded ", field.Type)
							}
							for _, n := range field.Names {
								if n.IsExported() {
									add("type ", s.Name.Name, " struct, ", n.Name, " ", field.Type)
								}
							}
						}
					default:
						add("type ", s.Name.Name, " ", s.Type)
					}
				case *ast.ValueSpec:
					for i, n := range s.Names {
						if !n.IsExported() {
							continue
						}
						parts := []any{d.Tok.String(), " ", n.Name}
						if s.Type != nil {
							parts = append(parts, " ", s.Type)
						}
						if i < len(s.Values) {
							parts = append(parts, " = ", s.Values[i])
						}
						add(parts...)
					}
				}
			}
		}
	}
	return out
}
