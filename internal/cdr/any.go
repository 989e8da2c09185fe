package cdr

import (
	"fmt"
)

// Any is a self-describing value: a TypeCode plus a Go representation of
// the value. The Go representations are:
//
//	void                nil
//	octet, char         byte
//	boolean             bool
//	short               int16          unsigned short   uint16
//	long                int32          unsigned long    uint32
//	long long           int64          unsigned long long uint64
//	float               float32        double           float64
//	string              string
//	sequence<octet>     []byte
//	sequence<T>         []Any (element TypeCodes must equal T)
//	struct              map[string]Any keyed by field name
//	Object              string (stringified object reference)
type Any struct {
	Type  *TypeCode
	Value any
}

// NewAny wraps a Go value with its TypeCode.
func NewAny(tc *TypeCode, v any) Any { return Any{Type: tc, Value: v} }

// Convenience constructors for common primitive Anys.

// Long returns an Any holding a signed 32-bit integer.
func Long(v int32) Any { return Any{Type: TCLong, Value: v} }

// ULong returns an Any holding an unsigned 32-bit integer.
func ULong(v uint32) Any { return Any{Type: TCULong, Value: v} }

// LongLong returns an Any holding a signed 64-bit integer.
func LongLong(v int64) Any { return Any{Type: TCLongLong, Value: v} }

// Double returns an Any holding a 64-bit float.
func Double(v float64) Any { return Any{Type: TCDouble, Value: v} }

// Str returns an Any holding a string.
func Str(v string) Any { return Any{Type: TCString, Value: v} }

// Bool returns an Any holding a boolean.
func Bool(v bool) Any { return Any{Type: TCBoolean, Value: v} }

// Octets returns an Any holding an octet sequence.
func Octets(v []byte) Any { return Any{Type: SequenceOf(TCOctet), Value: v} }

// String renders the Any for diagnostics.
func (a Any) String() string { return fmt.Sprintf("%v: %v", a.Type, a.Value) }

// Marshal writes the value (not the TypeCode) onto the encoder following
// the layout dictated by the TypeCode.
func (a Any) Marshal(e *Encoder) error {
	return marshalValue(e, a.Type, a.Value)
}

// UnmarshalAny reads a bare value of the given TypeCode.
func UnmarshalAny(d *Decoder, tc *TypeCode) (Any, error) {
	v, err := unmarshalValue(d, tc)
	if err != nil {
		return Any{}, err
	}
	return Any{Type: tc, Value: v}, nil
}

func typeMismatch(tc *TypeCode, v any) error {
	return fmt.Errorf("cdr: value %T does not match typecode %v", v, tc)
}

func marshalValue(e *Encoder, tc *TypeCode, v any) error {
	if tc == nil {
		return fmt.Errorf("cdr: marshalling value without typecode")
	}
	switch tc.Kind() {
	case KindVoid:
		return nil
	case KindOctet, KindChar:
		b, ok := v.(byte)
		if !ok {
			return typeMismatch(tc, v)
		}
		e.WriteOctet(b)
	case KindBoolean:
		b, ok := v.(bool)
		if !ok {
			return typeMismatch(tc, v)
		}
		e.WriteBool(b)
	case KindShort:
		x, ok := v.(int16)
		if !ok {
			return typeMismatch(tc, v)
		}
		e.WriteShort(x)
	case KindUShort:
		x, ok := v.(uint16)
		if !ok {
			return typeMismatch(tc, v)
		}
		e.WriteUShort(x)
	case KindLong:
		x, ok := v.(int32)
		if !ok {
			return typeMismatch(tc, v)
		}
		e.WriteLong(x)
	case KindULong:
		x, ok := v.(uint32)
		if !ok {
			return typeMismatch(tc, v)
		}
		e.WriteULong(x)
	case KindLongLong:
		x, ok := v.(int64)
		if !ok {
			return typeMismatch(tc, v)
		}
		e.WriteLongLong(x)
	case KindULongLong:
		x, ok := v.(uint64)
		if !ok {
			return typeMismatch(tc, v)
		}
		e.WriteULongLong(x)
	case KindFloat:
		x, ok := v.(float32)
		if !ok {
			return typeMismatch(tc, v)
		}
		e.WriteFloat(x)
	case KindDouble:
		x, ok := v.(float64)
		if !ok {
			return typeMismatch(tc, v)
		}
		e.WriteDouble(x)
	case KindString, KindObjRef:
		s, ok := v.(string)
		if !ok {
			return typeMismatch(tc, v)
		}
		e.WriteString(s)
	case KindSequence:
		if tc.Elem().Kind() == KindOctet {
			b, ok := v.([]byte)
			if !ok {
				return typeMismatch(tc, v)
			}
			e.WriteOctets(b)
			return nil
		}
		elems, ok := v.([]Any)
		if !ok {
			return typeMismatch(tc, v)
		}
		e.WriteULong(uint32(len(elems)))
		for i, el := range elems {
			if err := marshalValue(e, tc.Elem(), el.Value); err != nil {
				return fmt.Errorf("cdr: sequence element %d: %w", i, err)
			}
		}
	case KindStruct:
		m, ok := v.(map[string]Any)
		if !ok {
			return typeMismatch(tc, v)
		}
		for _, f := range tc.Fields() {
			fv, ok := m[f.Name]
			if !ok {
				return fmt.Errorf("cdr: struct %s missing field %q", tc.Name(), f.Name)
			}
			if err := marshalValue(e, f.Type, fv.Value); err != nil {
				return fmt.Errorf("cdr: struct %s field %q: %w", tc.Name(), f.Name, err)
			}
		}
	default:
		return fmt.Errorf("cdr: cannot marshal kind %v", tc.Kind())
	}
	return nil
}

func unmarshalValue(d *Decoder, tc *TypeCode) (any, error) {
	switch tc.Kind() {
	case KindVoid:
		return nil, nil
	case KindOctet, KindChar:
		return d.ReadOctet()
	case KindBoolean:
		return d.ReadBool()
	case KindShort:
		return d.ReadShort()
	case KindUShort:
		return d.ReadUShort()
	case KindLong:
		return d.ReadLong()
	case KindULong:
		return d.ReadULong()
	case KindLongLong:
		return d.ReadLongLong()
	case KindULongLong:
		return d.ReadULongLong()
	case KindFloat:
		return d.ReadFloat()
	case KindDouble:
		return d.ReadDouble()
	case KindString, KindObjRef:
		return d.ReadString()
	case KindSequence:
		if tc.Elem().Kind() == KindOctet {
			b, err := d.ReadOctets()
			if err != nil {
				return nil, err
			}
			// Copy: decoder buffers are transient.
			out := make([]byte, len(b))
			copy(out, b)
			return out, nil
		}
		n, err := d.ReadULong()
		if err != nil {
			return nil, fmt.Errorf("cdr: reading sequence length: %w", err)
		}
		if int64(n) > int64(d.Remaining()) {
			return nil, fmt.Errorf("cdr: sequence length %d exceeds remaining %d bytes", n, d.Remaining())
		}
		elems := make([]Any, 0, n)
		for i := uint32(0); i < n; i++ {
			v, err := unmarshalValue(d, tc.Elem())
			if err != nil {
				return nil, fmt.Errorf("cdr: sequence element %d: %w", i, err)
			}
			elems = append(elems, Any{Type: tc.Elem(), Value: v})
		}
		return elems, nil
	case KindStruct:
		m := make(map[string]Any, len(tc.Fields()))
		for _, f := range tc.Fields() {
			v, err := unmarshalValue(d, f.Type)
			if err != nil {
				return nil, fmt.Errorf("cdr: struct %s field %q: %w", tc.Name(), f.Name, err)
			}
			m[f.Name] = Any{Type: f.Type, Value: v}
		}
		return m, nil
	default:
		return nil, fmt.Errorf("cdr: cannot unmarshal kind %v", tc.Kind())
	}
}
