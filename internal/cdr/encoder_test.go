package cdr

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestAlignmentPadding(t *testing.T) {
	e := NewEncoder(BigEndian)
	e.WriteOctet(0xAA)
	e.WriteULong(1) // must pad 3 octets to offset 4
	if got, want := e.Len(), 8; got != want {
		t.Fatalf("encoded length = %d, want %d", got, want)
	}
	want := []byte{0xAA, 0, 0, 0, 0, 0, 0, 1}
	if !bytes.Equal(e.Bytes(), want) {
		t.Fatalf("encoded bytes = %x, want %x", e.Bytes(), want)
	}
}

func TestAlignment8(t *testing.T) {
	e := NewEncoder(BigEndian)
	e.WriteOctet(1)
	e.WriteDouble(1.0) // pads to offset 8
	if got, want := e.Len(), 16; got != want {
		t.Fatalf("encoded length = %d, want %d", got, want)
	}
	d := NewDecoder(e.Bytes(), BigEndian)
	if _, err := d.ReadOctet(); err != nil {
		t.Fatal(err)
	}
	v, err := d.ReadDouble()
	if err != nil {
		t.Fatal(err)
	}
	if v != 1.0 {
		t.Fatalf("double = %v, want 1.0", v)
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, s := range []string{"", "a", "hello world", "motörhead ünïcode", string(make([]byte, 1000))} {
		for _, order := range []ByteOrder{BigEndian, LittleEndian} {
			e := NewEncoder(order)
			e.WriteString(s)
			d := NewDecoder(e.Bytes(), order)
			got, err := d.ReadString()
			if err != nil {
				t.Fatalf("order %v: %v", order, err)
			}
			if got != s {
				t.Fatalf("order %v: round trip = %q, want %q", order, got, s)
			}
			if d.Remaining() != 0 {
				t.Fatalf("order %v: %d bytes left over", order, d.Remaining())
			}
		}
	}
}

func TestPrimitiveRoundTripProperty(t *testing.T) {
	type record struct {
		O   byte
		B   bool
		S   int16
		US  uint16
		L   int32
		UL  uint32
		LL  int64
		UL2 uint64
		F   float32
		D   float64
		St  string
		By  []byte
	}
	f := func(r record, little bool) bool {
		order := BigEndian
		if little {
			order = LittleEndian
		}
		e := NewEncoder(order)
		e.WriteOctet(r.O)
		e.WriteBool(r.B)
		e.WriteShort(r.S)
		e.WriteUShort(r.US)
		e.WriteLong(r.L)
		e.WriteULong(r.UL)
		e.WriteLongLong(r.LL)
		e.WriteULongLong(r.UL2)
		e.WriteFloat(r.F)
		e.WriteDouble(r.D)
		e.WriteString(r.St)
		e.WriteOctets(r.By)

		d := NewDecoder(e.Bytes(), order)
		o, _ := d.ReadOctet()
		b, _ := d.ReadBool()
		s, _ := d.ReadShort()
		us, _ := d.ReadUShort()
		l, _ := d.ReadLong()
		ul, _ := d.ReadULong()
		ll, _ := d.ReadLongLong()
		ul2, _ := d.ReadULongLong()
		fl, _ := d.ReadFloat()
		db, _ := d.ReadDouble()
		st, _ := d.ReadString()
		by, err := d.ReadOctets()
		if err != nil {
			return false
		}
		floatEq := func(a, b float32) bool {
			return a == b || (math.IsNaN(float64(a)) && math.IsNaN(float64(b)))
		}
		doubleEq := func(a, b float64) bool {
			return a == b || (math.IsNaN(a) && math.IsNaN(b))
		}
		return o == r.O && b == r.B && s == r.S && us == r.US && l == r.L &&
			ul == r.UL && ll == r.LL && ul2 == r.UL2 &&
			floatEq(fl, r.F) && doubleEq(db, r.D) &&
			st == r.St && bytes.Equal(by, r.By) && d.Remaining() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTruncatedBuffers(t *testing.T) {
	e := NewEncoder(BigEndian)
	e.WriteString("payload string")
	e.WriteULong(42)
	full := e.Bytes()
	// Every strict prefix must fail cleanly, never panic.
	for n := 0; n < len(full); n++ {
		d := NewDecoder(full[:n], BigEndian)
		_, err1 := d.ReadString()
		_, err2 := d.ReadULong()
		if err1 == nil && err2 == nil {
			t.Fatalf("prefix of %d bytes decoded without error", n)
		}
	}
}

func TestStringLengthLimit(t *testing.T) {
	e := NewEncoder(BigEndian)
	e.WriteULong(1 << 30) // absurd length, no body
	d := NewDecoder(e.Bytes(), BigEndian)
	if _, err := d.ReadString(); err == nil {
		t.Fatal("oversized string length accepted")
	}
	d = NewDecoder(e.Bytes(), BigEndian)
	if _, err := d.ReadOctets(); err == nil {
		t.Fatal("oversized octet sequence length accepted")
	}
}

func TestEncapsulationRestartsAlignment(t *testing.T) {
	e := NewEncoder(BigEndian)
	e.WriteOctet(0xFF) // misalign the outer stream
	end := e.BeginEncapsulation()
	e.WriteULong(7) // aligned relative to encapsulation start
	e.WriteString("inner")
	end()
	e.WriteULong(99) // outer value after the encapsulation

	d := NewDecoder(e.Bytes(), BigEndian)
	if _, err := d.ReadOctet(); err != nil {
		t.Fatal(err)
	}
	inner, err := d.BeginEncapsulation()
	if err != nil {
		t.Fatal(err)
	}
	v, err := inner.ReadULong()
	if err != nil {
		t.Fatal(err)
	}
	if v != 7 {
		t.Fatalf("inner ulong = %d, want 7", v)
	}
	s, err := inner.ReadString()
	if err != nil {
		t.Fatal(err)
	}
	if s != "inner" {
		t.Fatalf("inner string = %q", s)
	}
	outer, err := d.ReadULong()
	if err != nil {
		t.Fatal(err)
	}
	if outer != 99 {
		t.Fatalf("outer ulong = %d, want 99", outer)
	}
}

func TestNestedEncapsulation(t *testing.T) {
	e := NewEncoder(LittleEndian)
	end1 := e.BeginEncapsulation()
	e.WriteString("level1")
	end2 := e.BeginEncapsulation()
	e.WriteString("level2")
	end2()
	end1()

	d := NewDecoder(e.Bytes(), LittleEndian)
	d1, err := d.BeginEncapsulation()
	if err != nil {
		t.Fatal(err)
	}
	s1, err := d1.ReadString()
	if err != nil || s1 != "level1" {
		t.Fatalf("level1 = %q, %v", s1, err)
	}
	d2, err := d1.BeginEncapsulation()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := d2.ReadString()
	if err != nil || s2 != "level2" {
		t.Fatalf("level2 = %q, %v", s2, err)
	}
}

// TestReadStringReuse: the same characters on the wire hand back the
// caller's string without allocating; anything else decodes as ReadString.
func TestReadStringReuse(t *testing.T) {
	e := NewEncoder(BigEndian)
	e.WriteString("echo")
	e.WriteString("other")
	e.WriteString("")
	buf := e.Bytes()

	prev := "echo"
	d := NewDecoder(buf, BigEndian)
	got, err := d.ReadStringReuse(prev)
	if err != nil || got != "echo" || unsafe.StringData(got) != unsafe.StringData(prev) {
		t.Fatalf("matching name: %q, %v (reused: %v)", got, err, unsafe.StringData(got) == unsafe.StringData(prev))
	}
	if got, err = d.ReadStringReuse(prev); err != nil || got != "other" {
		t.Fatalf("different name: %q, %v", got, err)
	}
	if got, err = d.ReadStringReuse(prev); err != nil || got != "" {
		t.Fatalf("empty name: %q, %v", got, err)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = NewDecoder(buf, BigEndian).ReadStringReuse(prev) }); n != 0 {
		t.Fatalf("reusing read allocates %.0f objects", n)
	}
	if _, err := NewDecoder(buf[:6], BigEndian).ReadStringReuse(prev); err == nil {
		t.Fatal("truncated string decoded")
	}
}
