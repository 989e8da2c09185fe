package idl

import (
	"strings"
	"unicode"
)

// lexer turns QIDL source into tokens. It supports //-line and /* block */
// comments and #-prefixed preprocessor lines (skipped, like classic IDL
// #include handling left to the build).
type lexer struct {
	src  string
	file string
	pos  int
	line int
	col  int
}

// newLexer builds a lexer over src, attributing positions to file.
func newLexer(file, src string) *lexer {
	return &lexer{src: src, file: file, line: 1, col: 1}
}

func (l *lexer) position() Position {
	return Position{File: l.file, Line: l.line, Col: l.col}
}

func (l *lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) peek2() byte {
	if l.pos+1 >= len(l.src) {
		return 0
	}
	return l.src[l.pos+1]
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

// skipTrivia consumes whitespace, comments and preprocessor lines.
func (l *lexer) skipTrivia() error {
	for l.pos < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			start := l.position()
			l.advance()
			l.advance()
			closed := false
			for l.pos < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return errf(start, "unterminated block comment")
			}
		case c == '#':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

// Next returns the next token.
func (l *lexer) Next() (token, error) {
	if err := l.skipTrivia(); err != nil {
		return token{}, err
	}
	pos := l.position()
	if l.pos >= len(l.src) {
		return token{Kind: tokEOF, Pos: pos}, nil
	}
	c := l.peek()
	switch {
	case isIdentStart(c):
		var b strings.Builder
		for l.pos < len(l.src) && isIdentPart(l.peek()) {
			b.WriteByte(l.advance())
		}
		text := b.String()
		kind := tokIdent
		if keywords[text] {
			kind = tokKeyword
		}
		return token{Kind: kind, Text: text, Pos: pos}, nil
	case unicode.IsDigit(rune(c)) || (c == '-' && unicode.IsDigit(rune(l.peek2()))):
		var b strings.Builder
		if c == '-' {
			b.WriteByte(l.advance())
		}
		seenDot := false
		for l.pos < len(l.src) {
			ch := l.peek()
			if ch == '.' && !seenDot {
				seenDot = true
				b.WriteByte(l.advance())
				continue
			}
			if !unicode.IsDigit(rune(ch)) {
				break
			}
			b.WriteByte(l.advance())
		}
		return token{Kind: tokNumber, Text: b.String(), Pos: pos}, nil
	case c == '"':
		l.advance()
		var b strings.Builder
		for {
			if l.pos >= len(l.src) {
				return token{}, errf(pos, "unterminated string literal")
			}
			ch := l.advance()
			if ch == '"' {
				break
			}
			if ch == '\\' && l.pos < len(l.src) {
				esc := l.advance()
				switch esc {
				case 'n':
					b.WriteByte('\n')
				case 't':
					b.WriteByte('\t')
				case '\\', '"':
					b.WriteByte(esc)
				default:
					return token{}, errf(pos, "unknown escape \\%c", esc)
				}
				continue
			}
			b.WriteByte(ch)
		}
		return token{Kind: tokString, Text: b.String(), Pos: pos}, nil
	case strings.IndexByte("{}();,<>=:", c) >= 0:
		l.advance()
		text := string(c)
		// "::" scoping operator.
		if c == ':' && l.peek() == ':' {
			l.advance()
			text = "::"
		}
		return token{Kind: tokPunct, Text: text, Pos: pos}, nil
	default:
		return token{}, errf(pos, "unexpected character %q", c)
	}
}
