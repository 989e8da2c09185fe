package cdr

import (
	"fmt"
	"strings"
)

// Kind enumerates the CDR type constructors understood by the dynamic
// layer.
type Kind uint32

// Type kinds.
const (
	KindVoid Kind = iota + 1
	KindOctet
	KindBoolean
	KindChar
	KindShort
	KindUShort
	KindLong
	KindULong
	KindLongLong
	KindULongLong
	KindFloat
	KindDouble
	KindString
	KindSequence
	KindStruct
	KindObjRef
)

var kindNames = map[Kind]string{
	KindVoid:      "void",
	KindOctet:     "octet",
	KindBoolean:   "boolean",
	KindChar:      "char",
	KindShort:     "short",
	KindUShort:    "unsigned short",
	KindLong:      "long",
	KindULong:     "unsigned long",
	KindLongLong:  "long long",
	KindULongLong: "unsigned long long",
	KindFloat:     "float",
	KindDouble:    "double",
	KindString:    "string",
	KindSequence:  "sequence",
	KindStruct:    "struct",
	KindObjRef:    "Object",
}

// String returns the IDL spelling of the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint32(k))
}

// Field describes one member of a struct TypeCode.
type Field struct {
	Name string
	Type *TypeCode
}

// TypeCode is a runtime description of a marshallable type. TypeCodes are
// immutable after construction; the package-level constructors share
// singletons for primitive kinds.
type TypeCode struct {
	kind Kind
	// name holds the repository-local name for struct and objref kinds;
	// empty otherwise.
	name string
	// elem is the element type for sequences.
	elem *TypeCode
	// fields are the members of a struct.
	fields []Field
}

// Primitive TypeCode singletons.
var (
	TCVoid      = &TypeCode{kind: KindVoid}
	TCOctet     = &TypeCode{kind: KindOctet}
	TCBoolean   = &TypeCode{kind: KindBoolean}
	TCChar      = &TypeCode{kind: KindChar}
	TCShort     = &TypeCode{kind: KindShort}
	TCUShort    = &TypeCode{kind: KindUShort}
	TCLong      = &TypeCode{kind: KindLong}
	TCULong     = &TypeCode{kind: KindULong}
	TCLongLong  = &TypeCode{kind: KindLongLong}
	TCULongLong = &TypeCode{kind: KindULongLong}
	TCFloat     = &TypeCode{kind: KindFloat}
	TCDouble    = &TypeCode{kind: KindDouble}
	TCString    = &TypeCode{kind: KindString}
	TCObjRef    = &TypeCode{kind: KindObjRef}
)

// SequenceOf returns the TypeCode of an unbounded sequence of elem.
func SequenceOf(elem *TypeCode) *TypeCode {
	return &TypeCode{kind: KindSequence, elem: elem}
}

// StructOf returns the TypeCode of a struct with the given name and fields.
func StructOf(name string, fields ...Field) *TypeCode {
	return &TypeCode{kind: KindStruct, name: name, fields: fields}
}

// Kind reports the type constructor.
func (tc *TypeCode) Kind() Kind { return tc.kind }

// Name reports the declared name for struct and objref kinds.
func (tc *TypeCode) Name() string { return tc.name }

// Elem reports the element type of a sequence, or nil.
func (tc *TypeCode) Elem() *TypeCode { return tc.elem }

// Fields reports the struct members. The returned slice must not be
// mutated.
func (tc *TypeCode) Fields() []Field { return tc.fields }

// Equal reports structural equality of two TypeCodes.
func (tc *TypeCode) Equal(other *TypeCode) bool {
	if tc == other {
		return true
	}
	if tc == nil || other == nil || tc.kind != other.kind || tc.name != other.name {
		return false
	}
	switch tc.kind {
	case KindSequence:
		return tc.elem.Equal(other.elem)
	case KindStruct:
		if len(tc.fields) != len(other.fields) {
			return false
		}
		for i, f := range tc.fields {
			if f.Name != other.fields[i].Name || !f.Type.Equal(other.fields[i].Type) {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// String renders the TypeCode in IDL-like syntax.
func (tc *TypeCode) String() string {
	if tc == nil {
		return "<nil>"
	}
	switch tc.kind {
	case KindSequence:
		return fmt.Sprintf("sequence<%s>", tc.elem)
	case KindStruct:
		var b strings.Builder
		fmt.Fprintf(&b, "struct %s {", tc.name)
		for i, f := range tc.fields {
			if i > 0 {
				b.WriteString("; ")
			}
			fmt.Fprintf(&b, "%s %s", f.Type, f.Name)
		}
		b.WriteString("}")
		return b.String()
	default:
		return tc.kind.String()
	}
}
