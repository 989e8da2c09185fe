package cdr

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
)

func anyRoundTrip(t *testing.T, a Any) Any {
	t.Helper()
	e := NewEncoder(BigEndian)
	if err := a.MarshalTyped(e); err != nil {
		t.Fatalf("marshal %v: %v", a, err)
	}
	d := NewDecoder(e.Bytes(), BigEndian)
	got, err := UnmarshalTypedAny(d)
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
		if !got.Type.Equal(a.Type) {
			t.Errorf("typecode mismatch: got %v want %v", got.Type, a.Type)
		}
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

func TestAnyNestedAny(t *testing.T) {
	inner := Str("nested")
	a := NewAny(TCAny, &inner)
	got := anyRoundTrip(t, a)
	ptr, ok := got.Value.(*Any)
	if !ok {
		t.Fatalf("got %T", got.Value)
	}
	if ptr.Value != "nested" {
		t.Fatalf("inner = %v", ptr.Value)
	}
}

func TestAnyEnumRoundTrip(t *testing.T) {
	tc := EnumOf("Direction", "IN", "OUT", "INOUT")
	a := NewAny(tc, uint32(2))
	got := anyRoundTrip(t, a)
	if got.Value != uint32(2) {
		t.Fatalf("enum = %v", got.Value)
	}
	// Out-of-range ordinal must be rejected on both paths.
	bad := NewAny(tc, uint32(7))
	e := NewEncoder(BigEndian)
	if err := bad.MarshalTyped(e); err == nil {
		t.Fatal("out-of-range enum marshalled")
	}
	e = NewEncoder(BigEndian)
	tc.Marshal(e)
	e.WriteULong(9)
	if _, err := UnmarshalTypedAny(NewDecoder(e.Bytes(), BigEndian)); err == nil {
		t.Fatal("out-of-range enum unmarshalled")
	}
}

func TestAnyTypeMismatch(t *testing.T) {
	bad := NewAny(TCLong, "not a long")
	e := NewEncoder(BigEndian)
	if err := bad.MarshalTyped(e); err == nil {
		t.Fatal("type mismatch not detected")
	}
}

func TestStructMissingField(t *testing.T) {
	tc := StructOf("S", Field{Name: "x", Type: TCLong})
	a := NewAny(tc, map[string]Any{})
	e := NewEncoder(BigEndian)
	if err := a.MarshalTyped(e); err == nil {
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
	if !EnumOf("E", "A").Equal(EnumOf("E", "A")) {
		t.Error("identical enums not equal")
	}
	if EnumOf("E", "A").Equal(EnumOf("E", "B")) {
		t.Error("different enums equal")
	}
}

func TestTypeCodeString(t *testing.T) {
	tc := StructOf("P", Field{Name: "n", Type: TCString}, Field{Name: "v", Type: SequenceOf(TCDouble)})
	want := "struct P {string n; sequence<double> v}"
	if got := tc.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if got := EnumOf("E", "A", "B").String(); got != "enum E {A, B}" {
		t.Fatalf("enum String() = %q", got)
	}
}

func TestTypeCodeRoundTripProperty(t *testing.T) {
	// Generate random nested TypeCodes from a seed and verify
	// marshal/unmarshal identity.
	prims := []*TypeCode{TCOctet, TCBoolean, TCShort, TCUShort, TCLong, TCULong,
		TCLongLong, TCULongLong, TCFloat, TCDouble, TCString, TCObjRef, TCVoid, TCAny}
	var build func(seed uint64, depth int) *TypeCode
	build = func(seed uint64, depth int) *TypeCode {
		pick := seed % 17
		if depth > 3 || pick < 10 {
			return prims[seed%uint64(len(prims))]
		}
		switch pick {
		case 10, 11, 12:
			return SequenceOf(build(seed/17, depth+1))
		case 13, 14:
			n := int(seed%3) + 1
			fields := make([]Field, n)
			for i := range fields {
				fields[i] = Field{
					Name: string(rune('a' + i)),
					Type: build(seed/uint64(7+i), depth+1),
				}
			}
			return StructOf("S", fields...)
		default:
			return EnumOf("E", "A", "B", "C")
		}
	}
	f := func(seed uint64) bool {
		tc := build(seed, 0)
		e := NewEncoder(LittleEndian)
		tc.Marshal(e)
		got, err := UnmarshalTypeCode(NewDecoder(e.Bytes(), LittleEndian))
		if err != nil {
			return false
		}
		return got.Equal(tc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTypeCodeDepthLimit(t *testing.T) {
	tc := TCLong
	for i := 0; i < maxTypeCodeDepth+4; i++ {
		tc = SequenceOf(tc)
	}
	e := NewEncoder(BigEndian)
	tc.Marshal(e)
	if _, err := UnmarshalTypeCode(NewDecoder(e.Bytes(), BigEndian)); err == nil {
		t.Fatal("deep typecode accepted")
	}
}

func TestOctetSequenceCopies(t *testing.T) {
	e := NewEncoder(BigEndian)
	if err := Octets([]byte{1, 2, 3}).MarshalTyped(e); err != nil {
		t.Fatal(err)
	}
	buf := e.Bytes()
	d := NewDecoder(buf, BigEndian)
	got, err := UnmarshalTypedAny(d)
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
