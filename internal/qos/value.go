package qos

import (
	"fmt"
	"strconv"

	"maqs/internal/cdr"
)

// ValueKind enumerates the types a QoS parameter value can take.
type ValueKind uint8

// Value kinds.
const (
	KindNumber ValueKind = iota + 1
	KindString
	KindBool
)

// String names the kind.
func (k ValueKind) String() string {
	switch k {
	case KindNumber:
		return "number"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("ValueKind(%d)", uint8(k))
	}
}

// Value is a QoS parameter value: a tagged union of number, string and
// bool. Numbers are carried as float64 (CDR double), which covers the
// counts, rates and durations QoS parameters express.
type Value struct {
	Kind ValueKind
	Num  float64
	Str  string
	Bool bool
}

// Number wraps a numeric value.
func Number(v float64) Value { return Value{Kind: KindNumber, Num: v} }

// Text wraps a string value.
func Text(v string) Value { return Value{Kind: KindString, Str: v} }

// Flag wraps a boolean value.
func Flag(v bool) Value { return Value{Kind: KindBool, Bool: v} }

// IsZero reports whether the value is unset.
func (v Value) IsZero() bool { return v.Kind == 0 }

// String renders the value.
func (v Value) String() string {
	switch v.Kind {
	case KindNumber:
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	case KindString:
		return v.Str
	case KindBool:
		return strconv.FormatBool(v.Bool)
	default:
		return "<unset>"
	}
}

// Equal reports exact equality.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KindNumber:
		return v.Num == o.Num
	case KindString:
		return v.Str == o.Str
	case KindBool:
		return v.Bool == o.Bool
	default:
		return true
	}
}

// Marshal writes the value onto e.
func (v Value) Marshal(e *cdr.Encoder) {
	e.WriteOctet(byte(v.Kind))
	switch v.Kind {
	case KindNumber:
		e.WriteDouble(v.Num)
	case KindString:
		e.WriteString(v.Str)
	case KindBool:
		e.WriteBool(v.Bool)
	}
}

// unmarshalValue reads a value from d.
func unmarshalValue(d *cdr.Decoder) (Value, error) {
	k, err := d.ReadOctet()
	if err != nil {
		return Value{}, fmt.Errorf("qos: reading value kind: %w", err)
	}
	switch ValueKind(k) {
	case KindNumber:
		n, err := d.ReadDouble()
		if err != nil {
			return Value{}, fmt.Errorf("qos: reading number value: %w", err)
		}
		return Number(n), nil
	case KindString:
		s, err := d.ReadString()
		if err != nil {
			return Value{}, fmt.Errorf("qos: reading string value: %w", err)
		}
		return Text(s), nil
	case KindBool:
		b, err := d.ReadBool()
		if err != nil {
			return Value{}, fmt.Errorf("qos: reading bool value: %w", err)
		}
		return Flag(b), nil
	default:
		return Value{}, fmt.Errorf("qos: unknown value kind %d", k)
	}
}
