package qos

import (
	"fmt"
	"math"

	"maqs/internal/cdr"
)

// ParamProposal states what the client wants for one parameter.
type ParamProposal struct {
	// Name of the parameter.
	Name string
	// Desired is the preferred value.
	Desired Value
	// Min and Max bound acceptable numeric values (ignored for string
	// and bool parameters). Zero values mean "unbounded".
	Min, Max float64
	// Weight expresses the client's preference strength for this
	// parameter in utility terms (contract hierarchies, paper outlook).
	Weight float64
}

// Proposal is a client's opening position for a characteristic.
type Proposal struct {
	// Characteristic names the requested QoS characteristic.
	Characteristic string
	// Params are the parameter requests; omitted parameters take the
	// offer's defaults.
	Params []ParamProposal
}

// Param finds a parameter proposal by name.
func (p *Proposal) Param(name string) (ParamProposal, bool) {
	for _, pp := range p.Params {
		if pp.Name == name {
			return pp, true
		}
	}
	return ParamProposal{}, false
}

// ParamOffer states what the server can provide for one parameter.
type ParamOffer struct {
	// Name of the parameter.
	Name string
	// Kind of its values.
	Kind ValueKind
	// Min and Max bound the numeric capability.
	Min, Max float64
	// Choices enumerate admissible string values.
	Choices []string
	// Default applies when the proposal omits the parameter.
	Default Value
}

// Offer is the server's capability statement for a characteristic.
type Offer struct {
	// Characteristic names the offered QoS characteristic.
	Characteristic string
	// Params are the per-parameter capabilities.
	Params []ParamOffer
	// Capacity bounds concurrently admitted bindings (0 = unlimited).
	Capacity int
}

// Param finds a parameter offer by name.
func (o *Offer) Param(name string) (ParamOffer, bool) {
	for _, po := range o.Params {
		if po.Name == name {
			return po, true
		}
	}
	return ParamOffer{}, false
}

// Contract is a negotiated QoS agreement: the resolved value of every
// offered parameter.
type Contract struct {
	// Characteristic names the agreed QoS characteristic.
	Characteristic string
	// Epoch counts renegotiations of this contract.
	Epoch uint32
	// Values holds the agreed parameter values.
	Values map[string]Value
}

// Value returns the agreed value of a parameter (zero Value if absent).
func (c *Contract) Value(name string) Value {
	if c == nil {
		return Value{}
	}
	return c.Values[name]
}

// Number returns the agreed numeric value, or fallback when absent or of
// another kind.
func (c *Contract) Number(name string, fallback float64) float64 {
	v := c.Value(name)
	if v.Kind != KindNumber {
		return fallback
	}
	return v.Num
}

// Text returns the agreed string value, or fallback.
func (c *Contract) Text(name, fallback string) string {
	v := c.Value(name)
	if v.Kind != KindString {
		return fallback
	}
	return v.Str
}

// Flag returns the agreed boolean value, or fallback.
func (c *Contract) Flag(name string, fallback bool) bool {
	v := c.Value(name)
	if v.Kind != KindBool {
		return fallback
	}
	return v.Bool
}

// Clone copies the contract.
func (c *Contract) Clone() *Contract {
	cp := &Contract{Characteristic: c.Characteristic, Epoch: c.Epoch, Values: make(map[string]Value, len(c.Values))}
	for k, v := range c.Values {
		cp.Values[k] = v
	}
	return cp
}

// NegotiationError explains why a proposal could not be satisfied. It
// travels as the user exception excNegotiationFailed.
type NegotiationError struct {
	Characteristic string
	Param          string
	Reason         string
}

// excNegotiationFailed is the repository ID of the negotiation failure
// user exception.
const excNegotiationFailed = "IDL:maqs/qos/NegotiationFailed:1.0"

// Error implements the error interface.
func (e *NegotiationError) Error() string {
	if e.Param == "" {
		return fmt.Sprintf("qos: negotiating %s: %s", e.Characteristic, e.Reason)
	}
	return fmt.Sprintf("qos: negotiating %s parameter %q: %s", e.Characteristic, e.Param, e.Reason)
}

// resolve computes the contract an offer grants a proposal, the heart of
// the negotiation: per parameter the desired value is admitted if the
// offer covers it, clamped into the feasible region when possible, and
// rejected when proposal and offer are disjoint.
func resolve(p *Proposal, o *Offer) (*Contract, error) {
	if p.Characteristic != o.Characteristic {
		return nil, &NegotiationError{
			Characteristic: p.Characteristic,
			Reason:         fmt.Sprintf("offer is for %q", o.Characteristic),
		}
	}
	values := make(map[string]Value, len(o.Params))
	for _, po := range o.Params {
		pp, requested := p.Param(po.Name)
		if !requested {
			if po.Default.IsZero() {
				return nil, &NegotiationError{p.Characteristic, po.Name, "no request and no default"}
			}
			values[po.Name] = po.Default
			continue
		}
		v, err := resolveParam(p.Characteristic, pp, po)
		if err != nil {
			return nil, err
		}
		values[po.Name] = v
	}
	// A proposal naming unknown parameters is a client bug worth
	// surfacing instead of silently ignoring.
	for _, pp := range p.Params {
		if _, known := o.Param(pp.Name); !known {
			return nil, &NegotiationError{p.Characteristic, pp.Name, "parameter not offered"}
		}
	}
	return &Contract{Characteristic: p.Characteristic, Values: values}, nil
}

func resolveParam(char string, pp ParamProposal, po ParamOffer) (Value, error) {
	if pp.Desired.Kind != 0 && pp.Desired.Kind != po.Kind {
		return Value{}, &NegotiationError{char, po.Name,
			fmt.Sprintf("kind mismatch: requested %v, offered %v", pp.Desired.Kind, po.Kind)}
	}
	switch po.Kind {
	case KindNumber:
		lo, hi := po.Min, po.Max
		if pp.Min != 0 || pp.Max != 0 {
			lo = math.Max(lo, pp.Min)
			if pp.Max != 0 {
				hi = math.Min(hi, pp.Max)
			}
		}
		if lo > hi {
			return Value{}, &NegotiationError{char, po.Name,
				fmt.Sprintf("ranges disjoint: offer [%g,%g], proposal [%g,%g]", po.Min, po.Max, pp.Min, pp.Max)}
		}
		d := pp.Desired.Num
		if pp.Desired.IsZero() {
			if !po.Default.IsZero() {
				d = po.Default.Num
			} else {
				d = lo
			}
		}
		return Number(math.Min(math.Max(d, lo), hi)), nil
	case KindString:
		want := pp.Desired.Str
		if pp.Desired.IsZero() {
			if po.Default.IsZero() {
				return Value{}, &NegotiationError{char, po.Name, "string parameter needs a desired value or default"}
			}
			return po.Default, nil
		}
		// An empty choice list means the string is unconstrained.
		if len(po.Choices) == 0 {
			return Text(want), nil
		}
		for _, c := range po.Choices {
			if c == want {
				return Text(want), nil
			}
		}
		return Value{}, &NegotiationError{char, po.Name,
			fmt.Sprintf("value %q not among offered choices %v", want, po.Choices)}
	case KindBool:
		if pp.Desired.IsZero() {
			return po.Default, nil
		}
		return pp.Desired, nil
	default:
		return Value{}, &NegotiationError{char, po.Name, "offer with unknown kind"}
	}
}

// --- wire encodings -------------------------------------------------------

// Marshal writes the proposal onto e.
func (p *Proposal) Marshal(e *cdr.Encoder) {
	e.WriteString(p.Characteristic)
	e.WriteULong(uint32(len(p.Params)))
	for _, pp := range p.Params {
		e.WriteString(pp.Name)
		pp.Desired.Marshal(e)
		e.WriteDouble(pp.Min)
		e.WriteDouble(pp.Max)
		e.WriteDouble(pp.Weight)
	}
}

// unmarshalProposal reads a proposal from d.
func unmarshalProposal(d *cdr.Decoder) (*Proposal, error) {
	var p Proposal
	var err error
	if p.Characteristic, err = d.ReadString(); err != nil {
		return nil, fmt.Errorf("qos: reading proposal characteristic: %w", err)
	}
	n, err := d.ReadULong()
	if err != nil {
		return nil, fmt.Errorf("qos: reading proposal arity: %w", err)
	}
	if n > 256 {
		return nil, fmt.Errorf("qos: proposal arity %d exceeds limit", n)
	}
	for i := uint32(0); i < n; i++ {
		var pp ParamProposal
		if pp.Name, err = d.ReadString(); err != nil {
			return nil, fmt.Errorf("qos: reading proposal param name: %w", err)
		}
		if pp.Desired, err = unmarshalValue(d); err != nil {
			return nil, err
		}
		if pp.Min, err = d.ReadDouble(); err != nil {
			return nil, fmt.Errorf("qos: reading proposal min: %w", err)
		}
		if pp.Max, err = d.ReadDouble(); err != nil {
			return nil, fmt.Errorf("qos: reading proposal max: %w", err)
		}
		if pp.Weight, err = d.ReadDouble(); err != nil {
			return nil, fmt.Errorf("qos: reading proposal weight: %w", err)
		}
		p.Params = append(p.Params, pp)
	}
	return &p, nil
}

// Marshal writes the offer onto e.
func (o *Offer) Marshal(e *cdr.Encoder) {
	e.WriteString(o.Characteristic)
	e.WriteLong(int32(o.Capacity))
	e.WriteULong(uint32(len(o.Params)))
	for _, po := range o.Params {
		e.WriteString(po.Name)
		e.WriteOctet(byte(po.Kind))
		e.WriteDouble(po.Min)
		e.WriteDouble(po.Max)
		e.WriteULong(uint32(len(po.Choices)))
		for _, c := range po.Choices {
			e.WriteString(c)
		}
		po.Default.Marshal(e)
	}
}

// UnmarshalOffer reads an offer from d.
func UnmarshalOffer(d *cdr.Decoder) (*Offer, error) {
	var o Offer
	var err error
	if o.Characteristic, err = d.ReadString(); err != nil {
		return nil, fmt.Errorf("qos: reading offer characteristic: %w", err)
	}
	capacity, err := d.ReadLong()
	if err != nil {
		return nil, fmt.Errorf("qos: reading offer capacity: %w", err)
	}
	o.Capacity = int(capacity)
	n, err := d.ReadULong()
	if err != nil {
		return nil, fmt.Errorf("qos: reading offer arity: %w", err)
	}
	if n > 256 {
		return nil, fmt.Errorf("qos: offer arity %d exceeds limit", n)
	}
	for i := uint32(0); i < n; i++ {
		var po ParamOffer
		if po.Name, err = d.ReadString(); err != nil {
			return nil, fmt.Errorf("qos: reading offer param name: %w", err)
		}
		kind, err := d.ReadOctet()
		if err != nil {
			return nil, fmt.Errorf("qos: reading offer param kind: %w", err)
		}
		po.Kind = ValueKind(kind)
		if po.Min, err = d.ReadDouble(); err != nil {
			return nil, fmt.Errorf("qos: reading offer min: %w", err)
		}
		if po.Max, err = d.ReadDouble(); err != nil {
			return nil, fmt.Errorf("qos: reading offer max: %w", err)
		}
		nc, err := d.ReadULong()
		if err != nil {
			return nil, fmt.Errorf("qos: reading offer choice arity: %w", err)
		}
		if nc > 256 {
			return nil, fmt.Errorf("qos: offer choice arity %d exceeds limit", nc)
		}
		for j := uint32(0); j < nc; j++ {
			c, err := d.ReadString()
			if err != nil {
				return nil, fmt.Errorf("qos: reading offer choice: %w", err)
			}
			po.Choices = append(po.Choices, c)
		}
		if po.Default, err = unmarshalValue(d); err != nil {
			return nil, err
		}
		o.Params = append(o.Params, po)
	}
	return &o, nil
}

// Marshal writes the contract onto e.
func (c *Contract) Marshal(e *cdr.Encoder) {
	e.WriteString(c.Characteristic)
	e.WriteULong(c.Epoch)
	e.WriteULong(uint32(len(c.Values)))
	// Deterministic order for reproducible wire images.
	for _, name := range sortedKeys(c.Values) {
		e.WriteString(name)
		c.Values[name].Marshal(e)
	}
}

// unmarshalContract reads a contract from d.
func unmarshalContract(d *cdr.Decoder) (*Contract, error) {
	var c Contract
	var err error
	if c.Characteristic, err = d.ReadString(); err != nil {
		return nil, fmt.Errorf("qos: reading contract characteristic: %w", err)
	}
	if c.Epoch, err = d.ReadULong(); err != nil {
		return nil, fmt.Errorf("qos: reading contract epoch: %w", err)
	}
	n, err := d.ReadULong()
	if err != nil {
		return nil, fmt.Errorf("qos: reading contract arity: %w", err)
	}
	if n > 256 {
		return nil, fmt.Errorf("qos: contract arity %d exceeds limit", n)
	}
	c.Values = make(map[string]Value, n)
	for i := uint32(0); i < n; i++ {
		name, err := d.ReadString()
		if err != nil {
			return nil, fmt.Errorf("qos: reading contract value name: %w", err)
		}
		v, err := unmarshalValue(d)
		if err != nil {
			return nil, err
		}
		c.Values[name] = v
	}
	return &c, nil
}

func sortedKeys(m map[string]Value) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
