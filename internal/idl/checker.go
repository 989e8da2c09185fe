package idl

import "strconv"

// Check runs semantic analysis over a parsed spec. It returns the list of
// all errors found (empty when the spec is valid).
func Check(spec *Spec) []error {
	c := &checker{spec: spec}
	c.collect()
	c.run()
	return c.errs
}

type checker struct {
	spec  *Spec
	errs  []error
	kinds map[string]string // name → "struct"|"enum"|"exception"|"qos"|"interface"
}

func (c *checker) errorf(pos Position, format string, args ...any) {
	c.errs = append(c.errs, errf(pos, format, args...))
}

// collect builds the global name table, reporting duplicates. QIDL names
// live in one flat namespace across modules (scoped references collapse
// to their final segment).
func (c *checker) collect() {
	c.kinds = make(map[string]string)
	add := func(name, kind string, pos Position) {
		if prev, dup := c.kinds[name]; dup {
			c.errorf(pos, "%s %q redeclares a %s of the same name", kind, name, prev)
			return
		}
		c.kinds[name] = kind
	}
	for _, m := range c.spec.Modules {
		for _, d := range m.Structs {
			add(d.Name, "struct", d.Pos)
		}
		for _, d := range m.Enums {
			add(d.Name, "enum", d.Pos)
		}
		for _, d := range m.Exceptions {
			add(d.Name, "exception", d.Pos)
		}
		for _, d := range m.QoS {
			add(d.Name, "qos", d.Pos)
		}
		for _, d := range m.Interfaces {
			add(d.Name, "interface", d.Pos)
		}
	}
}

func (c *checker) run() {
	for _, m := range c.spec.Modules {
		for _, d := range m.Structs {
			c.checkFields(d.Name, d.Fields)
		}
		for _, d := range m.Enums {
			c.checkEnum(d)
		}
		for _, d := range m.Exceptions {
			c.checkFields(d.Name, d.Fields)
		}
		for _, d := range m.QoS {
			c.checkQoS(d)
		}
		for _, d := range m.Interfaces {
			c.checkInterface(d)
		}
	}
}

// checkType validates a type reference; value-only contexts (struct
// fields, parameters) reject exception/interface/qos names.
func (c *checker) checkType(t *Type) {
	switch t.Kind {
	case TypeSequence:
		c.checkType(t.Elem)
	case TypeNamed:
		kind, ok := c.kinds[t.Name]
		if !ok {
			c.errorf(t.Pos, "unknown type %q", t.Name)
			return
		}
		if kind != "struct" && kind != "enum" {
			c.errorf(t.Pos, "%s %q cannot be used as a value type", kind, t.Name)
		}
	}
}

func (c *checker) checkFields(owner string, fields []Field) {
	if len(fields) == 0 {
		// Empty structs are legal but empty exceptions are common; no
		// complaint either way.
		return
	}
	seen := make(map[string]bool)
	for _, f := range fields {
		if seen[f.Name] {
			c.errorf(f.Pos, "duplicate member %q in %q", f.Name, owner)
		}
		seen[f.Name] = true
		c.checkType(f.Type)
	}
}

func (c *checker) checkEnum(d *EnumDecl) {
	seen := make(map[string]bool)
	for _, m := range d.Members {
		if seen[m] {
			c.errorf(d.Pos, "duplicate enum member %q in %q", m, d.Name)
		}
		seen[m] = true
	}
}

func (c *checker) checkOperation(owner string, op Operation, seenOps map[string]bool) {
	if seenOps[op.Name] {
		c.errorf(op.Pos, "duplicate operation %q in %q", op.Name, owner)
	}
	seenOps[op.Name] = true
	if op.Result.Kind != TypeVoid {
		c.checkType(op.Result)
	}
	seenParams := make(map[string]bool)
	for _, p := range op.Params {
		if seenParams[p.Name] {
			c.errorf(p.Pos, "duplicate parameter %q in operation %q", p.Name, op.Name)
		}
		seenParams[p.Name] = true
		c.checkType(p.Type)
		if op.OneWay && p.Dir != DirIn {
			c.errorf(p.Pos, "oneway operation %q cannot have %s parameter %q", op.Name, p.Dir, p.Name)
		}
	}
	if op.OneWay && len(op.Raises) > 0 {
		c.errorf(op.Pos, "oneway operation %q cannot raise exceptions", op.Name)
	}
	for _, exc := range op.Raises {
		if kind, ok := c.kinds[exc]; !ok {
			c.errorf(op.Pos, "operation %q raises unknown exception %q", op.Name, exc)
		} else if kind != "exception" {
			c.errorf(op.Pos, "operation %q raises %s %q, which is not an exception", op.Name, kind, exc)
		}
	}
}

func (c *checker) checkQoS(d *QoSDecl) {
	seenParams := make(map[string]bool)
	for _, p := range d.Params {
		if seenParams[p.Name] {
			c.errorf(p.Pos, "duplicate QoS parameter %q in %q", p.Name, d.Name)
		}
		seenParams[p.Name] = true
		// QoS parameters must be of negotiable kinds: numeric, string or
		// boolean (they map to the contract Value union).
		switch p.Type.Kind {
		case TypeShort, TypeUShort, TypeLong, TypeULong, TypeLongLong,
			TypeULongLong, TypeFloat, TypeDouble, TypeString, TypeBoolean:
		default:
			c.errorf(p.Pos, "QoS parameter %q has non-negotiable type %s", p.Name, p.Type)
		}
		if p.HasDef {
			c.checkDefault(d.Name, p)
		}
	}
	seenOps := make(map[string]bool)
	for _, op := range d.Ops {
		c.checkOperation(d.Name, op, seenOps)
	}
}

func (c *checker) checkDefault(owner string, p QoSParam) {
	switch p.Type.Kind {
	case TypeBoolean:
		if p.Default != "true" && p.Default != "false" {
			c.errorf(p.Pos, "boolean parameter %q of %q has non-boolean default %q", p.Name, owner, p.Default)
		}
	case TypeString:
		// Any literal text is fine.
	default:
		if _, err := strconv.ParseFloat(p.Default, 64); err != nil {
			c.errorf(p.Pos, "numeric parameter %q of %q has non-numeric default %q", p.Name, owner, p.Default)
		}
	}
}

func (c *checker) checkInterface(d *InterfaceDecl) {
	for _, base := range d.Bases {
		if kind, ok := c.kinds[base]; !ok {
			c.errorf(d.Pos, "interface %q inherits unknown %q", d.Name, base)
		} else if kind != "interface" {
			c.errorf(d.Pos, "interface %q inherits %s %q", d.Name, kind, base)
		} else if base == d.Name {
			c.errorf(d.Pos, "interface %q inherits itself", d.Name)
		}
	}
	seenSupports := make(map[string]bool)
	for _, q := range d.Supports {
		// QoS is assigned to interfaces only (paper §3.2); the grammar
		// enforces the placement, the checker the referent kind.
		if kind, ok := c.kinds[q]; !ok {
			c.errorf(d.Pos, "interface %q supports unknown QoS characteristic %q", d.Name, q)
		} else if kind != "qos" {
			c.errorf(d.Pos, "interface %q supports %s %q, which is not a qos declaration", d.Name, kind, q)
		}
		if seenSupports[q] {
			c.errorf(d.Pos, "interface %q supports %q twice", d.Name, q)
		}
		seenSupports[q] = true
	}
	// Attribute types must be value types; accessor names join the
	// operation namespace.
	seenAttrs := make(map[string]bool)
	for _, a := range d.Attributes {
		if seenAttrs[a.Name] {
			c.errorf(a.Pos, "duplicate attribute %q in %q", a.Name, d.Name)
		}
		seenAttrs[a.Name] = true
		c.checkType(a.Type)
	}
	seenOps := make(map[string]bool)
	// Inherited operations participate in duplicate detection.
	for _, base := range d.Bases {
		if bd, _ := c.spec.Interface(base); bd != nil {
			for _, op := range bd.AllOps() {
				seenOps[op.Name] = true
			}
		}
	}
	for _, a := range d.Attributes {
		for _, op := range a.Ops() {
			if seenOps[op.Name] {
				c.errorf(a.Pos, "attribute %q accessor %q collides in %q", a.Name, op.Name, d.Name)
			}
			seenOps[op.Name] = true
		}
	}
	for _, op := range d.Ops {
		c.checkOperation(d.Name, op, seenOps)
	}
	// Operations of supported QoS characteristics must not collide with
	// interface operations (they share the dispatch namespace).
	for _, q := range d.Supports {
		if qd, _ := c.spec.qosDecl(q); qd != nil {
			for _, op := range qd.Ops {
				if seenOps[op.Name] {
					c.errorf(d.Pos, "operation %q of QoS %q collides with an operation of interface %q",
						op.Name, q, d.Name)
				}
			}
		}
	}
}
