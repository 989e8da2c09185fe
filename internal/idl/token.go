// Package idl implements the QIDL language: a CORBA-IDL subset extended
// with the paper's QoS constructs — "qos" declarations (QoS parameters
// plus the operations of the QoS responsibility) and the "supports"
// clause assigning QoS characteristics to interfaces. QoS may be assigned
// to interfaces only, never to operations or parameters (paper §3.2).
//
// The package provides the lexer, parser, AST and semantic checker; the
// sibling package idl/gen is the aspect weaver that maps QIDL to Go.
package idl

import "fmt"

// tokenKind enumerates lexical token classes.
type tokenKind int

// token kinds.
const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokPunct
)

var tokenKindNames = [...]string{"EOF", "identifier", "keyword", "number", "string", "punctuation"}

// String names the kind.
func (k tokenKind) String() string {
	if int(k) < len(tokenKindNames) {
		return tokenKindNames[k]
	}
	return fmt.Sprintf("tokenKind(%d)", int(k))
}

// token is one lexical unit.
type token struct {
	Kind tokenKind
	Text string
	Pos  Position
}

// Position locates a token in its source.
type Position struct {
	File string
	Line int
	Col  int
}

// String renders the position as file:line:col.
func (p Position) String() string {
	if p.File == "" {
		return fmt.Sprintf("%d:%d", p.Line, p.Col)
	}
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
}

// keywords of the QIDL language.
var keywords = map[string]bool{
	"module": true, "interface": true, "struct": true, "enum": true,
	"exception": true, "qos": true, "param": true, "supports": true,
	"oneway": true, "void": true, "in": true, "out": true, "inout": true,
	"raises": true, "readonly": true, "attribute": true,
	"boolean": true, "octet": true, "char": true, "short": true,
	"long": true, "unsigned": true, "float": true, "double": true,
	"string": true, "sequence": true,
	"true": true, "false": true,
	"category": true,
}

// Error is a lexical, syntactic or semantic error with its position.
type Error struct {
	Pos Position
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

func errf(pos Position, format string, args ...any) *Error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}
