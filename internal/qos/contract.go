package qos

import (
	"cmp"
	"fmt"
	"math"
	"slices"

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

// param finds a parameter proposal by name.
func (p *Proposal) param(name string) (ParamProposal, bool) {
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

// param finds a parameter offer by name.
func (o *Offer) param(name string) (ParamOffer, bool) {
	for _, po := range o.Params {
		if po.Name == name {
			return po, true
		}
	}
	return ParamOffer{}, false
}

// Term is one agreed parameter of a contract.
type Term struct {
	Name  string
	Value Value
}

// Contract is a negotiated QoS agreement: the resolved value of every
// offered parameter.
type Contract struct {
	// Characteristic names the agreed QoS characteristic.
	Characteristic string
	// Epoch counts renegotiations of this contract.
	Epoch uint32
	// Values holds the agreed parameter values, one term per name, sorted
	// by name: the order Marshal writes them in. Read them through Value,
	// Number, Text and Flag.
	Values []Term
}

// Value returns the agreed value of a parameter (zero Value if absent).
func (c *Contract) Value(name string) Value {
	if c == nil {
		return Value{}
	}
	for _, t := range c.Values {
		if t.Name == name {
			return t.Value
		}
	}
	return Value{}
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
	return &Contract{Characteristic: c.Characteristic, Epoch: c.Epoch, Values: slices.Clone(c.Values)}
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
	values := make([]Term, 0, len(o.Params))
	for _, po := range o.Params {
		pp, requested := p.param(po.Name)
		if !requested {
			if po.Default.IsZero() {
				return nil, &NegotiationError{p.Characteristic, po.Name, "no request and no default"}
			}
			values = append(values, Term{po.Name, po.Default})
			continue
		}
		v, err := resolveParam(p.Characteristic, pp, po)
		if err != nil {
			return nil, err
		}
		values = append(values, Term{po.Name, v})
	}
	// A proposal naming unknown parameters is a client bug worth
	// surfacing instead of silently ignoring.
	for _, pp := range p.Params {
		if _, known := o.param(pp.Name); !known {
			return nil, &NegotiationError{p.Characteristic, pp.Name, "parameter not offered"}
		}
	}
	// Offers list their parameters in declaration order; a contract keeps
	// name order.
	slices.SortFunc(values, func(a, b Term) int { return cmp.Compare(a.Name, b.Name) })
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

// unmarshalProposal reads a proposal from d. offerFor, given the
// characteristic's name as the wire spells it, returns the offer the
// proposal will be resolved against, or nil (nil offerFor: no offer).
// unmarshalProposal hands that offer back and takes the names the offer
// holds from it rather than copying them off the wire: the server
// already knows the schema the client proposes against.
func unmarshalProposal(d *cdr.Decoder, offerFor func(characteristic []byte) *Offer) (*Proposal, *Offer, error) {
	var p Proposal
	char, err := d.ReadStringView()
	if err != nil {
		return nil, nil, fmt.Errorf("qos: reading proposal characteristic: %w", err)
	}
	var o *Offer
	if offerFor != nil {
		o = offerFor(char)
	}
	if o != nil && o.Characteristic == string(char) {
		p.Characteristic = o.Characteristic
	} else {
		p.Characteristic = string(char)
	}
	n, err := d.ReadULong()
	if err != nil {
		return nil, nil, fmt.Errorf("qos: reading proposal arity: %w", err)
	}
	if n > 256 {
		return nil, nil, fmt.Errorf("qos: proposal arity %d exceeds limit", n)
	}
	if n > 0 {
		p.Params = make([]ParamProposal, 0, min(n, maxEntries(d)))
	}
	for i := uint32(0); i < n; i++ {
		var pp ParamProposal
		name, err := d.ReadStringView()
		if err != nil {
			return nil, nil, fmt.Errorf("qos: reading proposal param name: %w", err)
		}
		pp.Name = o.paramName(name)
		if pp.Desired, err = unmarshalValue(d); err != nil {
			return nil, nil, err
		}
		if pp.Min, err = d.ReadDouble(); err != nil {
			return nil, nil, fmt.Errorf("qos: reading proposal min: %w", err)
		}
		if pp.Max, err = d.ReadDouble(); err != nil {
			return nil, nil, fmt.Errorf("qos: reading proposal max: %w", err)
		}
		if pp.Weight, err = d.ReadDouble(); err != nil {
			return nil, nil, fmt.Errorf("qos: reading proposal weight: %w", err)
		}
		p.Params = append(p.Params, pp)
	}
	return &p, o, nil
}

// paramName returns the offer's own name for the parameter the wire
// spells, or a copy of it when the offer (possibly nil) has no such
// parameter.
func (o *Offer) paramName(wire []byte) string {
	if o != nil {
		for _, po := range o.Params {
			if po.Name == string(wire) {
				return po.Name
			}
		}
	}
	return string(wire)
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

// unmarshalOffer reads an offer from d.
func unmarshalOffer(d *cdr.Decoder) (*Offer, error) {
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

// Marshal writes the contract onto e, its terms in name order.
func (c *Contract) Marshal(e *cdr.Encoder) {
	e.WriteString(c.Characteristic)
	e.WriteULong(c.Epoch)
	e.WriteULong(uint32(len(c.Values)))
	for _, t := range c.Values {
		e.WriteString(t.Name)
		t.Value.Marshal(e)
	}
}

// maxEntries bounds the proposal parameters or contract terms d's unread
// bytes can hold: each takes at least a name's length and a value's kind.
// Sizing by it, an arity a peer inflates reserves no more room than the
// bytes that carry it.
func maxEntries(d *cdr.Decoder) uint32 { return uint32(d.Remaining() / 5) }

// unmarshalContract reads a contract from d. The contract answers p, the
// proposal the client just sent (nil: none), so the names p holds are taken
// from it rather than copied off the wire.
func unmarshalContract(d *cdr.Decoder, p *Proposal) (*Contract, error) {
	var c Contract
	char, err := d.ReadStringView()
	if err != nil {
		return nil, fmt.Errorf("qos: reading contract characteristic: %w", err)
	}
	if p != nil && p.Characteristic == string(char) {
		c.Characteristic = p.Characteristic
	} else {
		c.Characteristic = string(char)
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
	if n > 0 {
		c.Values = make([]Term, 0, min(n, maxEntries(d)))
	}
	for i := uint32(0); i < n; i++ {
		name, err := d.ReadStringView()
		if err != nil {
			return nil, fmt.Errorf("qos: reading contract value name: %w", err)
		}
		t := Term{Name: p.paramName(name)}
		if t.Value, err = unmarshalValue(d); err != nil {
			return nil, err
		}
		c.Values = append(c.Values, t)
	}
	return &c, nil
}

// paramName returns the proposal's own name for the parameter the wire
// spells, or a copy of it when the proposal (possibly nil) has no such
// parameter.
func (p *Proposal) paramName(wire []byte) string {
	if p != nil {
		for _, pp := range p.Params {
			if pp.Name == string(wire) {
				return pp.Name
			}
		}
	}
	return string(wire)
}
