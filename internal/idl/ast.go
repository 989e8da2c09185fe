package idl

// TypeKind enumerates QIDL type constructors.
type TypeKind int

// Type kinds.
const (
	TypeVoid TypeKind = iota
	TypeBoolean
	TypeOctet
	TypeChar
	TypeShort
	TypeUShort
	TypeLong
	TypeULong
	TypeLongLong
	TypeULongLong
	TypeFloat
	TypeDouble
	TypeString
	TypeSequence
	TypeNamed // struct or enum reference
)

// Type is a QIDL type expression.
type Type struct {
	Kind TypeKind
	// Elem is the element type of a sequence.
	Elem *Type
	// Name is the referenced declaration for TypeNamed.
	Name string
	Pos  Position
}

// String renders the type in IDL syntax.
func (t *Type) String() string {
	switch t.Kind {
	case TypeVoid:
		return "void"
	case TypeBoolean:
		return "boolean"
	case TypeOctet:
		return "octet"
	case TypeChar:
		return "char"
	case TypeShort:
		return "short"
	case TypeUShort:
		return "unsigned short"
	case TypeLong:
		return "long"
	case TypeULong:
		return "unsigned long"
	case TypeLongLong:
		return "long long"
	case TypeULongLong:
		return "unsigned long long"
	case TypeFloat:
		return "float"
	case TypeDouble:
		return "double"
	case TypeString:
		return "string"
	case TypeSequence:
		return "sequence<" + t.Elem.String() + ">"
	case TypeNamed:
		return t.Name
	default:
		return "?"
	}
}

// Direction of an operation parameter.
type Direction int

// Parameter directions.
const (
	DirIn Direction = iota
	DirOut
	DirInOut
)

// String renders the direction keyword.
func (d Direction) String() string {
	switch d {
	case DirOut:
		return "out"
	case DirInOut:
		return "inout"
	default:
		return "in"
	}
}

// Param is one operation parameter.
type Param struct {
	Dir  Direction
	Type *Type
	Name string
	Pos  Position
}

// Operation is one interface or qos operation.
type Operation struct {
	OneWay bool
	Result *Type
	Name   string
	Params []Param
	Raises []string
	Pos    Position
}

// Field is one struct or exception member.
type Field struct {
	Type *Type
	Name string
	Pos  Position
}

// StructDecl declares a struct.
type StructDecl struct {
	Name   string
	Fields []Field
	Pos    Position
}

// EnumDecl declares an enum.
type EnumDecl struct {
	Name    string
	Members []string
	Pos     Position
}

// ExceptionDecl declares a user exception.
type ExceptionDecl struct {
	Name   string
	Fields []Field
	Pos    Position
}

// QoSParam is a "param" declaration inside a qos block.
type QoSParam struct {
	Type *Type
	Name string
	// Default is the literal default ("" when absent). For booleans it
	// is "true"/"false"; for strings the unquoted text.
	Default string
	HasDef  bool
	Pos     Position
}

// QoSDecl is the paper's central construct: a QoS characteristic with its
// parameters and the operations of its QoS responsibility.
type QoSDecl struct {
	Name string
	// Category is an optional "category" annotation string.
	Category string
	Params   []QoSParam
	Ops      []Operation
	Pos      Position
}

// Attribute is an interface attribute; it maps to a getter operation
// "_get_<name>" and, unless read-only, a setter "_set_<name>".
type Attribute struct {
	ReadOnly bool
	Type     *Type
	Name     string
	Pos      Position
}

// Ops expands the attribute into its accessor operations.
func (a Attribute) Ops() []Operation {
	ops := []Operation{{
		Result: a.Type,
		Name:   "_get_" + a.Name,
		Pos:    a.Pos,
	}}
	if !a.ReadOnly {
		ops = append(ops, Operation{
			Result: &Type{Kind: TypeVoid, Pos: a.Pos},
			Name:   "_set_" + a.Name,
			Params: []Param{{Dir: DirIn, Type: a.Type, Name: "value", Pos: a.Pos}},
			Pos:    a.Pos,
		})
	}
	return ops
}

// InterfaceDecl declares an interface, optionally inheriting base
// interfaces and supporting QoS characteristics.
type InterfaceDecl struct {
	Name       string
	Bases      []string
	Supports   []string
	Attributes []Attribute
	Ops        []Operation
	Pos        Position
}

// AllOps returns declared operations plus the accessor operations of the
// interface's attributes (attributes first, in declaration order).
func (d *InterfaceDecl) AllOps() []Operation {
	out := make([]Operation, 0, len(d.Ops)+2*len(d.Attributes))
	for _, a := range d.Attributes {
		out = append(out, a.Ops()...)
	}
	return append(out, d.Ops...)
}

// Module is a parsed QIDL module.
type Module struct {
	Name       string
	Structs    []*StructDecl
	Enums      []*EnumDecl
	Exceptions []*ExceptionDecl
	QoS        []*QoSDecl
	Interfaces []*InterfaceDecl
	Pos        Position
}

// Spec is a parsed QIDL compilation unit (one or more modules; bare
// declarations go into an implicit unnamed module).
type Spec struct {
	File    string
	Modules []*Module
}

// Enum finds an enum declaration across all modules.
func (s *Spec) Enum(name string) (*EnumDecl, *Module) {
	for _, m := range s.Modules {
		for _, d := range m.Enums {
			if d.Name == name {
				return d, m
			}
		}
	}
	return nil, nil
}

// qosDecl finds a qos declaration across all modules.
func (s *Spec) qosDecl(name string) (*QoSDecl, *Module) {
	for _, m := range s.Modules {
		for _, d := range m.QoS {
			if d.Name == name {
				return d, m
			}
		}
	}
	return nil, nil
}

// Interface finds an interface declaration across all modules.
func (s *Spec) Interface(name string) (*InterfaceDecl, *Module) {
	for _, m := range s.Modules {
		for _, d := range m.Interfaces {
			if d.Name == name {
				return d, m
			}
		}
	}
	return nil, nil
}
