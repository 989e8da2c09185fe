package cdr

import (
	"bytes"
	"reflect"
	"testing"
)

func anyRoundTrip(t *testing.T, a Any) Any {
	t.Helper()
	e := NewEncoder(BigEndian)
	if err := a.Marshal(e); err != nil {
		t.Fatalf("marshal %v: %v", a, err)
	}
	d := NewDecoder(e.Bytes(), BigEndian)
	got, err := UnmarshalAny(d, a.Type)
	if err != nil {
		t.Fatalf("unmarshal %v: %v", a, err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left after %v", d.Remaining(), a)
	}
	return got
}

func TestAnyPrimitivesRoundTrip(t *testing.T) {
	cases := []Any{
		Long(-5),
		ULong(5),
		LongLong(1 << 40),
		Double(3.25),
		Str("quality of service"),
		Bool(true),
		Octets([]byte{9, 8, 7}),
		NewAny(TCShort, int16(-2)),
		NewAny(TCUShort, uint16(2)),
		NewAny(TCOctet, byte(255)),
		NewAny(TCFloat, float32(1.5)),
		NewAny(TCULongLong, uint64(12345678901234)),
		NewAny(TCVoid, nil),
		NewAny(TCObjRef, "IOR:00"),
	}
	for _, a := range cases {
		got := anyRoundTrip(t, a)
		if !reflect.DeepEqual(got.Value, a.Value) {
			t.Errorf("value mismatch for %v: got %#v want %#v", a.Type, got.Value, a.Value)
		}
	}
}

func TestAnyStructRoundTrip(t *testing.T) {
	tc := StructOf("QoSParam",
		Field{Name: "name", Type: TCString},
		Field{Name: "value", Type: TCDouble},
		Field{Name: "hard", Type: TCBoolean},
	)
	a := NewAny(tc, map[string]Any{
		"name":  Str("latency"),
		"value": Double(12.5),
		"hard":  Bool(true),
	})
	got := anyRoundTrip(t, a)
	m, ok := got.Value.(map[string]Any)
	if !ok {
		t.Fatalf("got %T", got.Value)
	}
	if m["name"].Value != "latency" || m["value"].Value != 12.5 || m["hard"].Value != true {
		t.Fatalf("struct fields = %v", m)
	}
}

func TestAnySequenceRoundTrip(t *testing.T) {
	tc := SequenceOf(TCString)
	a := NewAny(tc, []Any{Str("a"), Str("b"), Str("c")})
	got := anyRoundTrip(t, a)
	elems, ok := got.Value.([]Any)
	if !ok || len(elems) != 3 {
		t.Fatalf("got %#v", got.Value)
	}
	for i, want := range []string{"a", "b", "c"} {
		if elems[i].Value != want {
			t.Fatalf("element %d = %v", i, elems[i])
		}
	}
}

func TestAnyTypeMismatch(t *testing.T) {
	bad := NewAny(TCLong, "not a long")
	e := NewEncoder(BigEndian)
	if err := bad.Marshal(e); err == nil {
		t.Fatal("type mismatch not detected")
	}
}

func TestStructMissingField(t *testing.T) {
	tc := StructOf("S", Field{Name: "x", Type: TCLong})
	a := NewAny(tc, map[string]Any{})
	e := NewEncoder(BigEndian)
	if err := a.Marshal(e); err == nil {
		t.Fatal("missing field not detected")
	}
}

func TestTypeCodeEqual(t *testing.T) {
	s1 := StructOf("S", Field{Name: "x", Type: TCLong})
	s2 := StructOf("S", Field{Name: "x", Type: TCLong})
	s3 := StructOf("S", Field{Name: "x", Type: TCDouble})
	s4 := StructOf("T", Field{Name: "x", Type: TCLong})
	if !s1.Equal(s2) {
		t.Error("identical structs not equal")
	}
	if s1.Equal(s3) {
		t.Error("different field types equal")
	}
	if s1.Equal(s4) {
		t.Error("different names equal")
	}
	if !SequenceOf(TCLong).Equal(SequenceOf(TCLong)) {
		t.Error("identical sequences not equal")
	}
	if SequenceOf(TCLong).Equal(SequenceOf(TCShort)) {
		t.Error("different sequences equal")
	}
	if TCLong.Equal(TCULong) {
		t.Error("long equals ulong")
	}
}

func TestTypeCodeString(t *testing.T) {
	tc := StructOf("P", Field{Name: "n", Type: TCString}, Field{Name: "v", Type: SequenceOf(TCDouble)})
	want := "struct P {string n; sequence<double> v}"
	if got := tc.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestOctetSequenceCopies(t *testing.T) {
	e := NewEncoder(BigEndian)
	if err := Octets([]byte{1, 2, 3}).Marshal(e); err != nil {
		t.Fatal(err)
	}
	buf := e.Bytes()
	d := NewDecoder(buf, BigEndian)
	got, err := UnmarshalAny(d, SequenceOf(TCOctet))
	if err != nil {
		t.Fatal(err)
	}
	b := got.Value.([]byte)
	// Mutating the source buffer must not change the decoded value.
	for i := range buf {
		buf[i] = 0xEE
	}
	if !bytes.Equal(b, []byte{1, 2, 3}) {
		t.Fatalf("decoded octets alias the wire buffer: %v", b)
	}
}
