package idl

// parser builds the AST by recursive descent.
type parser struct {
	lexer *lexer
	tok   token
	ahead *token
}

// Parse parses a QIDL compilation unit.
func Parse(file, src string) (*Spec, error) {
	p := &parser{lexer: newLexer(file, src)}
	if err := p.next(); err != nil {
		return nil, err
	}
	spec := &Spec{File: file}
	implicit := &Module{Name: "", Pos: p.tok.Pos}
	for p.tok.Kind != tokEOF {
		switch {
		case p.isKeyword("module"):
			m, err := p.parseModule()
			if err != nil {
				return nil, err
			}
			spec.Modules = append(spec.Modules, m)
		default:
			if err := p.parseDeclInto(implicit); err != nil {
				return nil, err
			}
		}
	}
	if len(implicit.Structs)+len(implicit.Enums)+len(implicit.Exceptions)+
		len(implicit.QoS)+len(implicit.Interfaces) > 0 {
		spec.Modules = append(spec.Modules, implicit)
	}
	if len(spec.Modules) == 0 {
		return nil, errf(p.tok.Pos, "empty specification")
	}
	return spec, nil
}

func (p *parser) next() error {
	if p.ahead != nil {
		p.tok = *p.ahead
		p.ahead = nil
		return nil
	}
	t, err := p.lexer.Next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) isKeyword(kw string) bool {
	return p.tok.Kind == tokKeyword && p.tok.Text == kw
}

func (p *parser) isPunct(s string) bool {
	return p.tok.Kind == tokPunct && p.tok.Text == s
}

func (p *parser) expectKeyword(kw string) error {
	if !p.isKeyword(kw) {
		return errf(p.tok.Pos, "expected %q, found %q", kw, p.tok.Text)
	}
	return p.next()
}

func (p *parser) expectPunct(s string) error {
	if !p.isPunct(s) {
		return errf(p.tok.Pos, "expected %q, found %q", s, p.tok.Text)
	}
	return p.next()
}

func (p *parser) expectIdent() (string, Position, error) {
	if p.tok.Kind != tokIdent {
		return "", p.tok.Pos, errf(p.tok.Pos, "expected identifier, found %q", p.tok.Text)
	}
	name, pos := p.tok.Text, p.tok.Pos
	if err := p.next(); err != nil {
		return "", pos, err
	}
	return name, pos, nil
}

// consumeSemi eats an optional trailing semicolon.
func (p *parser) consumeSemi() error {
	if p.isPunct(";") {
		return p.next()
	}
	return nil
}

func (p *parser) parseModule() (*Module, error) {
	pos := p.tok.Pos
	if err := p.expectKeyword("module"); err != nil {
		return nil, err
	}
	name, _, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	m := &Module{Name: name, Pos: pos}
	for !p.isPunct("}") {
		if p.tok.Kind == tokEOF {
			return nil, errf(pos, "unterminated module %q", name)
		}
		if err := p.parseDeclInto(m); err != nil {
			return nil, err
		}
	}
	if err := p.next(); err != nil { // consume }
		return nil, err
	}
	return m, p.consumeSemi()
}

func (p *parser) parseDeclInto(m *Module) error {
	switch {
	case p.isKeyword("struct"):
		d, err := p.parseStruct()
		if err != nil {
			return err
		}
		m.Structs = append(m.Structs, d)
	case p.isKeyword("enum"):
		d, err := p.parseEnum()
		if err != nil {
			return err
		}
		m.Enums = append(m.Enums, d)
	case p.isKeyword("exception"):
		d, err := p.parseException()
		if err != nil {
			return err
		}
		m.Exceptions = append(m.Exceptions, d)
	case p.isKeyword("qos"):
		d, err := p.parseQoS()
		if err != nil {
			return err
		}
		m.QoS = append(m.QoS, d)
	case p.isKeyword("interface"):
		d, err := p.parseInterface()
		if err != nil {
			return err
		}
		m.Interfaces = append(m.Interfaces, d)
	default:
		return errf(p.tok.Pos, "expected declaration, found %q", p.tok.Text)
	}
	return nil
}

func (p *parser) parseFields(owner string) ([]Field, error) {
	var fields []Field
	for !p.isPunct("}") {
		if p.tok.Kind == tokEOF {
			return nil, errf(p.tok.Pos, "unterminated body of %q", owner)
		}
		t, err := p.parseType()
		if err != nil {
			return nil, err
		}
		name, pos, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		fields = append(fields, Field{Type: t, Name: name, Pos: pos})
	}
	return fields, p.next() // consume }
}

func (p *parser) parseStruct() (*StructDecl, error) {
	pos := p.tok.Pos
	if err := p.next(); err != nil {
		return nil, err
	}
	name, _, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	fields, err := p.parseFields(name)
	if err != nil {
		return nil, err
	}
	return &StructDecl{Name: name, Fields: fields, Pos: pos}, p.consumeSemi()
}

func (p *parser) parseException() (*ExceptionDecl, error) {
	pos := p.tok.Pos
	if err := p.next(); err != nil {
		return nil, err
	}
	name, _, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	fields, err := p.parseFields(name)
	if err != nil {
		return nil, err
	}
	return &ExceptionDecl{Name: name, Fields: fields, Pos: pos}, p.consumeSemi()
}

func (p *parser) parseEnum() (*EnumDecl, error) {
	pos := p.tok.Pos
	if err := p.next(); err != nil {
		return nil, err
	}
	name, _, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	var members []string
	for {
		member, _, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		members = append(members, member)
		if p.isPunct(",") {
			if err := p.next(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if err := p.expectPunct("}"); err != nil {
		return nil, err
	}
	return &EnumDecl{Name: name, Members: members, Pos: pos}, p.consumeSemi()
}

func (p *parser) parseQoS() (*QoSDecl, error) {
	pos := p.tok.Pos
	if err := p.next(); err != nil {
		return nil, err
	}
	name, _, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	d := &QoSDecl{Name: name, Pos: pos}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	for !p.isPunct("}") {
		switch {
		case p.tok.Kind == tokEOF:
			return nil, errf(pos, "unterminated qos %q", name)
		case p.isKeyword("category"):
			if err := p.next(); err != nil {
				return nil, err
			}
			if p.tok.Kind != tokString {
				return nil, errf(p.tok.Pos, "category expects a string literal")
			}
			d.Category = p.tok.Text
			if err := p.next(); err != nil {
				return nil, err
			}
			if err := p.expectPunct(";"); err != nil {
				return nil, err
			}
		case p.isKeyword("param"):
			qp, err := p.parseQoSParam()
			if err != nil {
				return nil, err
			}
			d.Params = append(d.Params, qp)
		default:
			op, err := p.parseOperation()
			if err != nil {
				return nil, err
			}
			d.Ops = append(d.Ops, op)
		}
	}
	if err := p.next(); err != nil {
		return nil, err
	}
	return d, p.consumeSemi()
}

func (p *parser) parseQoSParam() (QoSParam, error) {
	pos := p.tok.Pos
	if err := p.next(); err != nil { // consume "param"
		return QoSParam{}, err
	}
	t, err := p.parseType()
	if err != nil {
		return QoSParam{}, err
	}
	name, _, err := p.expectIdent()
	if err != nil {
		return QoSParam{}, err
	}
	qp := QoSParam{Type: t, Name: name, Pos: pos}
	if p.isPunct("=") {
		if err := p.next(); err != nil {
			return QoSParam{}, err
		}
		switch {
		case p.tok.Kind == tokNumber || p.tok.Kind == tokString:
			qp.Default, qp.HasDef = p.tok.Text, true
		case p.isKeyword("true") || p.isKeyword("false"):
			qp.Default, qp.HasDef = p.tok.Text, true
		default:
			return QoSParam{}, errf(p.tok.Pos, "expected literal default, found %q", p.tok.Text)
		}
		if err := p.next(); err != nil {
			return QoSParam{}, err
		}
	}
	return qp, p.expectPunct(";")
}

func (p *parser) parseInterface() (*InterfaceDecl, error) {
	pos := p.tok.Pos
	if err := p.next(); err != nil {
		return nil, err
	}
	name, _, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	d := &InterfaceDecl{Name: name, Pos: pos}
	if p.isPunct(":") {
		if err := p.next(); err != nil {
			return nil, err
		}
		for {
			base, _, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			d.Bases = append(d.Bases, base)
			if !p.isPunct(",") {
				break
			}
			if err := p.next(); err != nil {
				return nil, err
			}
		}
	}
	if p.isKeyword("supports") {
		if err := p.next(); err != nil {
			return nil, err
		}
		for {
			q, _, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			d.Supports = append(d.Supports, q)
			if !p.isPunct(",") {
				break
			}
			if err := p.next(); err != nil {
				return nil, err
			}
		}
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	for !p.isPunct("}") {
		if p.tok.Kind == tokEOF {
			return nil, errf(pos, "unterminated interface %q", name)
		}
		if p.isKeyword("readonly") || p.isKeyword("attribute") {
			attrs, err := p.parseAttribute()
			if err != nil {
				return nil, err
			}
			d.Attributes = append(d.Attributes, attrs...)
			continue
		}
		op, err := p.parseOperation()
		if err != nil {
			return nil, err
		}
		d.Ops = append(d.Ops, op)
	}
	if err := p.next(); err != nil {
		return nil, err
	}
	return d, p.consumeSemi()
}

// parseAttribute parses "[readonly] attribute <type> name {, name} ;".
func (p *parser) parseAttribute() ([]Attribute, error) {
	pos := p.tok.Pos
	readonly := false
	if p.isKeyword("readonly") {
		readonly = true
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("attribute"); err != nil {
		return nil, err
	}
	t, err := p.parseType()
	if err != nil {
		return nil, err
	}
	var attrs []Attribute
	for {
		name, npos, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		attrs = append(attrs, Attribute{ReadOnly: readonly, Type: t, Name: name, Pos: npos})
		if !p.isPunct(",") {
			break
		}
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	_ = pos
	return attrs, p.expectPunct(";")
}

func (p *parser) parseOperation() (Operation, error) {
	var op Operation
	op.Pos = p.tok.Pos
	if p.isKeyword("oneway") {
		op.OneWay = true
		if err := p.next(); err != nil {
			return op, err
		}
	}
	result, err := p.parseTypeOrVoid()
	if err != nil {
		return op, err
	}
	op.Result = result
	name, _, err := p.expectIdent()
	if err != nil {
		return op, err
	}
	op.Name = name
	if err := p.expectPunct("("); err != nil {
		return op, err
	}
	for !p.isPunct(")") {
		if len(op.Params) > 0 {
			if err := p.expectPunct(","); err != nil {
				return op, err
			}
		}
		param, err := p.parseParam()
		if err != nil {
			return op, err
		}
		op.Params = append(op.Params, param)
	}
	if err := p.next(); err != nil { // consume )
		return op, err
	}
	if p.isKeyword("raises") {
		if err := p.next(); err != nil {
			return op, err
		}
		if err := p.expectPunct("("); err != nil {
			return op, err
		}
		for {
			exc, _, err := p.expectIdent()
			if err != nil {
				return op, err
			}
			op.Raises = append(op.Raises, exc)
			if !p.isPunct(",") {
				break
			}
			if err := p.next(); err != nil {
				return op, err
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return op, err
		}
	}
	if op.OneWay && op.Result.Kind != TypeVoid {
		return op, errf(op.Pos, "oneway operation %q must return void", op.Name)
	}
	return op, p.expectPunct(";")
}

func (p *parser) parseParam() (Param, error) {
	var param Param
	param.Pos = p.tok.Pos
	switch {
	case p.isKeyword("in"):
		param.Dir = DirIn
	case p.isKeyword("out"):
		param.Dir = DirOut
	case p.isKeyword("inout"):
		param.Dir = DirInOut
	default:
		return param, errf(p.tok.Pos, "expected parameter direction, found %q", p.tok.Text)
	}
	if err := p.next(); err != nil {
		return param, err
	}
	t, err := p.parseType()
	if err != nil {
		return param, err
	}
	param.Type = t
	name, _, err := p.expectIdent()
	if err != nil {
		return param, err
	}
	param.Name = name
	return param, nil
}

func (p *parser) parseTypeOrVoid() (*Type, error) {
	if p.isKeyword("void") {
		pos := p.tok.Pos
		if err := p.next(); err != nil {
			return nil, err
		}
		return &Type{Kind: TypeVoid, Pos: pos}, nil
	}
	return p.parseType()
}

func (p *parser) parseType() (*Type, error) {
	pos := p.tok.Pos
	simple := map[string]TypeKind{
		"boolean": TypeBoolean, "octet": TypeOctet, "char": TypeChar,
		"short": TypeShort, "float": TypeFloat, "double": TypeDouble,
		"string": TypeString,
	}
	switch {
	case p.tok.Kind == tokKeyword && simple[p.tok.Text] != 0:
		kind := simple[p.tok.Text]
		if err := p.next(); err != nil {
			return nil, err
		}
		return &Type{Kind: kind, Pos: pos}, nil
	case p.isKeyword("long"):
		if err := p.next(); err != nil {
			return nil, err
		}
		if p.isKeyword("long") {
			if err := p.next(); err != nil {
				return nil, err
			}
			return &Type{Kind: TypeLongLong, Pos: pos}, nil
		}
		return &Type{Kind: TypeLong, Pos: pos}, nil
	case p.isKeyword("unsigned"):
		if err := p.next(); err != nil {
			return nil, err
		}
		switch {
		case p.isKeyword("short"):
			if err := p.next(); err != nil {
				return nil, err
			}
			return &Type{Kind: TypeUShort, Pos: pos}, nil
		case p.isKeyword("long"):
			if err := p.next(); err != nil {
				return nil, err
			}
			if p.isKeyword("long") {
				if err := p.next(); err != nil {
					return nil, err
				}
				return &Type{Kind: TypeULongLong, Pos: pos}, nil
			}
			return &Type{Kind: TypeULong, Pos: pos}, nil
		default:
			return nil, errf(p.tok.Pos, "expected short or long after unsigned")
		}
	case p.isKeyword("sequence"):
		if err := p.next(); err != nil {
			return nil, err
		}
		if err := p.expectPunct("<"); err != nil {
			return nil, err
		}
		elem, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(">"); err != nil {
			return nil, err
		}
		return &Type{Kind: TypeSequence, Elem: elem, Pos: pos}, nil
	case p.tok.Kind == tokIdent:
		name := p.tok.Text
		if err := p.next(); err != nil {
			return nil, err
		}
		// Allow scoped names "mod::Name"; the flat namespace keeps only
		// the final segment.
		for p.isPunct("::") {
			if err := p.next(); err != nil {
				return nil, err
			}
			seg, _, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			name = seg
		}
		return &Type{Kind: TypeNamed, Name: name, Pos: pos}, nil
	default:
		return nil, errf(p.tok.Pos, "expected type, found %q", p.tok.Text)
	}
}
