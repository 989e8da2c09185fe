package idl

import (
	"strings"
	"testing"
)

const bankQIDL = `
// The running example of the MAQS paper: a bank account supporting
// availability and compression characteristics.
module bank {
  struct Entry {
    string label;
    double amount;
    unsigned long long at;
  };

  enum Currency { EUR, USD, GBP };

  exception Overdrawn {
    double balance;
    double requested;
  };

  qos Availability {
    category "fault-tolerance";
    param unsigned short replicas = 2;
    param string strategy = "active";
    param boolean voting = false;

    void repl_sync(in string member);
  };

  qos Compression {
    param long level = 6;
  };

  interface Account supports Availability, Compression {
    void deposit(in double amount);
    double withdraw(in double amount) raises (Overdrawn);
    double balance();
    sequence<Entry> history(in unsigned long limit);
    oneway void note(in string message);
    long convert(in long cents, in Currency from, in Currency to);
  };
};
`

func TestParseBank(t *testing.T) {
	spec, err := Parse("bank.qidl", bankQIDL)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Modules) != 1 || spec.Modules[0].Name != "bank" {
		t.Fatalf("modules = %+v", spec.Modules)
	}
	m := spec.Modules[0]
	if len(m.Structs) != 1 || len(m.Enums) != 1 || len(m.Exceptions) != 1 ||
		len(m.QoS) != 2 || len(m.Interfaces) != 1 {
		t.Fatalf("decl counts: %d %d %d %d %d",
			len(m.Structs), len(m.Enums), len(m.Exceptions), len(m.QoS), len(m.Interfaces))
	}
	iface := m.Interfaces[0]
	if iface.Name != "Account" || len(iface.Supports) != 2 || len(iface.Ops) != 6 {
		t.Fatalf("interface = %+v", iface)
	}
	if iface.Supports[0] != "Availability" || iface.Supports[1] != "Compression" {
		t.Fatalf("supports = %v", iface.Supports)
	}
	avail := m.QoS[0]
	if avail.Category != "fault-tolerance" || len(avail.Params) != 3 || len(avail.Ops) != 1 {
		t.Fatalf("qos = %+v", avail)
	}
	if avail.Params[0].Name != "replicas" || avail.Params[0].Default != "2" || !avail.Params[0].HasDef {
		t.Fatalf("param = %+v", avail.Params[0])
	}
	if avail.Params[2].Type.Kind != TypeBoolean || avail.Params[2].Default != "false" {
		t.Fatalf("param = %+v", avail.Params[2])
	}
	withdraw := iface.Ops[1]
	if withdraw.Name != "withdraw" || len(withdraw.Raises) != 1 || withdraw.Raises[0] != "Overdrawn" {
		t.Fatalf("withdraw = %+v", withdraw)
	}
	note := iface.Ops[4]
	if !note.OneWay || note.Result.Kind != TypeVoid {
		t.Fatalf("note = %+v", note)
	}
	hist := iface.Ops[3]
	if hist.Result.Kind != TypeSequence || hist.Result.Elem.Name != "Entry" {
		t.Fatalf("history result = %v", hist.Result)
	}
	if errs := Check(spec); len(errs) != 0 {
		t.Fatalf("check errors: %v", errs)
	}
}

func TestParseTypes(t *testing.T) {
	src := `
struct AllTypes {
  boolean b;
  octet o;
  char c;
  short s;
  unsigned short us;
  long l;
  unsigned long ul;
  long long ll;
  unsigned long long ull;
  float f;
  double d;
  string str;
  sequence<long> seq;
  sequence<sequence<string>> nested;
};
`
	spec, err := Parse("t.qidl", src)
	if err != nil {
		t.Fatal(err)
	}
	st := spec.Modules[0].Structs[0]
	wantKinds := []TypeKind{TypeBoolean, TypeOctet, TypeChar, TypeShort, TypeUShort,
		TypeLong, TypeULong, TypeLongLong, TypeULongLong, TypeFloat, TypeDouble,
		TypeString, TypeSequence, TypeSequence}
	if len(st.Fields) != len(wantKinds) {
		t.Fatalf("fields = %d", len(st.Fields))
	}
	for i, f := range st.Fields {
		if f.Type.Kind != wantKinds[i] {
			t.Errorf("field %d kind = %v, want %v", i, f.Type.Kind, wantKinds[i])
		}
	}
	if st.Fields[13].Type.Elem.Elem.Kind != TypeString {
		t.Fatal("nested sequence broken")
	}
	if errs := Check(spec); len(errs) != 0 {
		t.Fatalf("check errors: %v", errs)
	}
}

func TestTypeString(t *testing.T) {
	src := `struct S { unsigned long long x; sequence<double> v; };`
	spec, err := Parse("t.qidl", src)
	if err != nil {
		t.Fatal(err)
	}
	fields := spec.Modules[0].Structs[0].Fields
	if fields[0].Type.String() != "unsigned long long" {
		t.Fatalf("type = %q", fields[0].Type)
	}
	if fields[1].Type.String() != "sequence<double>" {
		t.Fatalf("type = %q", fields[1].Type)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"":                                         "empty specification",
		"interface X {":                            "unterminated",
		"module M { struct S { long 5x; }; };":     "expected identifier",
		"interface I { void f(long x); };":         "expected parameter direction",
		"interface I { oneway long f(); };":        "must return void",
		"struct S { unsigned float x; };":          "expected short or long",
		"qos Q { param long p = ; };":              "expected literal",
		"banana":                                   "expected declaration",
		"interface I { void f(in string \"x\"); }": "expected",
		"/* unclosed":                              "unterminated block comment",
		"struct S { string s \x00; };":             "unexpected character",
		"qos Q { category 5; };":                   "category expects a string",
	}
	for src, wantSub := range cases {
		_, err := Parse("bad.qidl", src)
		if err == nil {
			t.Errorf("Parse(%q) succeeded", src)
			continue
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("Parse(%q) error %q does not mention %q", src, err, wantSub)
		}
	}
}

func TestCheckerErrors(t *testing.T) {
	cases := map[string]string{
		`struct S { long x; }; struct S { long y; };`:                  "redeclares",
		`struct S { long x; long x; };`:                                "duplicate member",
		`enum E { A, A };`:                                             "duplicate enum member",
		`struct S { Unknown u; };`:                                     "unknown type",
		`exception X {}; struct S { X x; };`:                           "cannot be used as a value type",
		`interface I { void f(); void f(); };`:                         "duplicate operation",
		`interface I { void f(in long a, in long a); };`:               "duplicate parameter",
		`interface I { void f() raises (Nope); };`:                     "unknown exception",
		`struct S { long x; }; interface I { void f() raises (S); };`:  "not an exception",
		`interface I : Nope {};`:                                       "inherits unknown",
		`struct S { long x; }; interface I : S {};`:                    "inherits struct",
		`interface I supports Nope {};`:                                "supports unknown",
		`struct S { long x; }; interface I supports S {};`:             "is not a qos",
		`qos Q { param long p; }; interface I supports Q, Q {};`:       "twice",
		`qos Q { param sequence<long> p; };`:                           "non-negotiable",
		`qos Q { param long p = banana; };`:                            "expected literal",
		`qos Q { param boolean p = 3; };`:                              "non-boolean default",
		`qos Q { void f(); }; interface I supports Q { void f(); };`:   "collides",
		`interface B { void f(); }; interface I : B { void f(); };`:    "duplicate operation",
		`interface I { oneway void f(out long x); };`:                  "cannot have out parameter",
		`interface I { oneway void f() raises (E); }; exception E {};`: "cannot raise",
	}
	for src, wantSub := range cases {
		spec, err := Parse("t.qidl", src)
		if err != nil {
			if !strings.Contains(err.Error(), wantSub) {
				t.Errorf("Parse(%q) error %q does not mention %q", src, err, wantSub)
			}
			continue
		}
		errs := Check(spec)
		if len(errs) == 0 {
			t.Errorf("Check(%q) found nothing, want %q", src, wantSub)
			continue
		}
		found := false
		for _, e := range errs {
			if strings.Contains(e.Error(), wantSub) {
				found = true
			}
		}
		if !found {
			t.Errorf("Check(%q) errors %v do not mention %q", src, errs, wantSub)
		}
	}
}

func TestCheckValidConstructs(t *testing.T) {
	src := `
exception Broke { double balance; };
qos Q { param double limit = 1.5; void q_op(in string s); };
interface Base { void ping(); };
interface Derived : Base supports Q {
  string hello(in string who, inout long counter, out double cost) raises (Broke);
};
`
	spec, err := Parse("ok.qidl", src)
	if err != nil {
		t.Fatal(err)
	}
	if errs := Check(spec); len(errs) != 0 {
		t.Fatalf("check errors: %v", errs)
	}
	iface, _ := spec.Interface("Derived")
	if iface == nil || len(iface.Bases) != 1 {
		t.Fatalf("interface = %+v", iface)
	}
	op := iface.Ops[0]
	if op.Params[1].Dir != DirInOut || op.Params[2].Dir != DirOut {
		t.Fatalf("dirs = %v %v", op.Params[1].Dir, op.Params[2].Dir)
	}
}

func TestScopedTypeNames(t *testing.T) {
	src := `
module a { struct P { long x; }; };
module b { interface I { a::P get(); }; };
`
	spec, err := Parse("scoped.qidl", src)
	if err != nil {
		t.Fatal(err)
	}
	if errs := Check(spec); len(errs) != 0 {
		t.Fatalf("check errors: %v", errs)
	}
	iface, _ := spec.Interface("I")
	if iface.Ops[0].Result.Name != "P" {
		t.Fatalf("result = %v", iface.Ops[0].Result)
	}
}

// lexAll tokenises the whole input.
func lexAll(file, src string) ([]token, error) {
	l := newLexer(file, src)
	var out []token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == tokEOF {
			return out, nil
		}
	}
}

func TestLexer(t *testing.T) {
	toks, err := lexAll("x", `module m_1 { // comment
  /* block */ interface I {}; }; # preprocessor
  "str\n\"esc" 3.14 -7 ::`)
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tok := range toks {
		texts = append(texts, tok.Text)
	}
	want := []string{"module", "m_1", "{", "interface", "I", "{", "}", ";", "}", ";",
		"str\n\"esc", "3.14", "-7", "::", ""}
	if len(texts) != len(want) {
		t.Fatalf("tokens = %q", texts)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Fatalf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
	// Position tracking.
	if toks[0].Pos.Line != 1 || toks[3].Pos.Line != 2 {
		t.Fatalf("positions: %v %v", toks[0].Pos, toks[3].Pos)
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{`"unterminated`, `"bad \q esc"`, "@"} {
		if _, err := lexAll("x", src); err == nil {
			t.Errorf("lexAll(%q) succeeded", src)
		}
	}
}

func TestSpecLookups(t *testing.T) {
	spec, err := Parse("bank.qidl", bankQIDL)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := spec.Enum("Currency"); d == nil {
		t.Fatal("Enum lookup failed")
	}
	if d, _ := spec.qosDecl("Availability"); d == nil {
		t.Fatal("QoSDecl lookup failed")
	}
	if d, _ := spec.Interface("Account"); d == nil {
		t.Fatal("Interface lookup failed")
	}
	if d, _ := spec.Interface("Nope"); d != nil {
		t.Fatal("phantom interface")
	}
}
