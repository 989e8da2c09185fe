package trader

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"maqs/internal/cdr"
	"maqs/internal/orb"
	"maqs/internal/qos"
)

// ObjectKey is the adapter key the trader servant is activated under.
const ObjectKey = "maqs/trader"

// RepoID identifies the trader interface.
const RepoID = "IDL:maqs/Trader:1.0"

// Trader operations.
const (
	opExport   = "export"
	opWithdraw = "withdraw"
	opQuery    = "query"
)

// ServiceOffer is one exported service.
type ServiceOffer struct {
	// ID is assigned at export time.
	ID string
	// ServiceType classifies the service (conventionally the repo ID).
	ServiceType string
	// Ref is the stringified object reference.
	Ref string
	// Properties are free-form matching attributes.
	Properties map[string]string
	// QoS lists the QoS offers of the object.
	QoS []*qos.Offer
}

func (o *ServiceOffer) marshal(e *cdr.Encoder) {
	e.WriteString(o.ID)
	e.WriteString(o.ServiceType)
	e.WriteString(o.Ref)
	keys := make([]string, 0, len(o.Properties))
	for k := range o.Properties {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.WriteULong(uint32(len(keys)))
	for _, k := range keys {
		e.WriteString(k)
		e.WriteString(o.Properties[k])
	}
	e.WriteULong(uint32(len(o.QoS)))
	for _, q := range o.QoS {
		q.Marshal(e)
	}
}

func unmarshalServiceOffer(d *cdr.Decoder) (*ServiceOffer, error) {
	var o ServiceOffer
	var err error
	if o.ID, err = d.ReadString(); err != nil {
		return nil, fmt.Errorf("trader: reading id: %w", err)
	}
	if o.ServiceType, err = d.ReadString(); err != nil {
		return nil, fmt.Errorf("trader: reading type: %w", err)
	}
	if o.Ref, err = d.ReadString(); err != nil {
		return nil, fmt.Errorf("trader: reading ref: %w", err)
	}
	n, err := d.ReadULong()
	if err != nil {
		return nil, fmt.Errorf("trader: reading property count: %w", err)
	}
	if n > 256 {
		return nil, fmt.Errorf("trader: property count %d exceeds limit", n)
	}
	o.Properties = make(map[string]string, n)
	for i := uint32(0); i < n; i++ {
		k, err := d.ReadString()
		if err != nil {
			return nil, fmt.Errorf("trader: reading property key: %w", err)
		}
		v, err := d.ReadString()
		if err != nil {
			return nil, fmt.Errorf("trader: reading property value: %w", err)
		}
		o.Properties[k] = v
	}
	nq, err := d.ReadULong()
	if err != nil {
		return nil, fmt.Errorf("trader: reading offer count: %w", err)
	}
	if nq > 64 {
		return nil, fmt.Errorf("trader: offer count %d exceeds limit", nq)
	}
	for i := uint32(0); i < nq; i++ {
		q, err := qos.UnmarshalOffer(d)
		if err != nil {
			return nil, err
		}
		o.QoS = append(o.QoS, q)
	}
	return &o, nil
}

// Servant is the trader service implementation.
type Servant struct {
	mu     sync.Mutex
	nextID int
	offers map[string]*ServiceOffer
}

var _ orb.Servant = (*Servant)(nil)

// NewServant constructs an empty trader.
func NewServant() *Servant {
	return &Servant{offers: make(map[string]*ServiceOffer)}
}

// Export registers an offer locally and returns its ID.
func (s *Servant) Export(o *ServiceOffer) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	id := fmt.Sprintf("offer-%d", s.nextID)
	cp := *o
	cp.ID = id
	s.offers[id] = &cp
	return id
}

// Withdraw removes an offer by ID.
func (s *Servant) Withdraw(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.offers[id]
	delete(s.offers, id)
	return ok
}

// Query returns offers of the given service type matching the constraint,
// sorted by ID for determinism.
func (s *Servant) Query(serviceType, constraint string) ([]*ServiceOffer, error) {
	expr, err := parseConstraint(constraint)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*ServiceOffer
	for _, o := range s.offers {
		if serviceType != "" && o.ServiceType != serviceType {
			continue
		}
		if expr.matches(o) {
			out = append(out, o)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// Invoke implements orb.Servant.
func (s *Servant) Invoke(req *orb.ServerRequest) error {
	switch req.Operation {
	case opExport:
		offer, err := unmarshalServiceOffer(req.In())
		if err != nil {
			return orb.NewSystemException(orb.ExcMarshal, 120, "bad export: %v", err)
		}
		req.Out.WriteString(s.Export(offer))
		return nil
	case opWithdraw:
		id, err := req.In().ReadString()
		if err != nil {
			return orb.NewSystemException(orb.ExcMarshal, 121, "bad withdraw: %v", err)
		}
		req.Out.WriteBool(s.Withdraw(id))
		return nil
	case opQuery:
		d := req.In()
		serviceType, err := d.ReadString()
		if err != nil {
			return orb.NewSystemException(orb.ExcMarshal, 122, "bad query: %v", err)
		}
		constraint, err := d.ReadString()
		if err != nil {
			return orb.NewSystemException(orb.ExcMarshal, 122, "bad query constraint: %v", err)
		}
		offers, err := s.Query(serviceType, constraint)
		if err != nil {
			return orb.NewSystemException(orb.ExcBadParam, 123, "%v", err)
		}
		req.Out.WriteULong(uint32(len(offers)))
		for _, o := range offers {
			o.marshal(req.Out)
		}
		return nil
	default:
		return orb.NewSystemException(orb.ExcBadOperation, 124, "trader has no operation %q", req.Operation)
	}
}

// --- constraint language ----------------------------------------------

// constraintExpr is a conjunction of comparisons over offer properties and
// QoS capabilities:
//
//	bandwidth >= 100 && region == "eu" && qos.Availability.replicas >= 3
//
// A term of the form qos.<Characteristic>.<param> tests whether the
// offer's capability can satisfy the comparison (numeric parameters test
// against the offered range, string parameters against the choices).
type constraintExpr struct {
	terms []term
}

type term struct {
	key   string
	op    string
	value string
}

// parseConstraint parses the constraint language (the empty string
// matches everything).
func parseConstraint(src string) (*constraintExpr, error) {
	c := &constraintExpr{}
	src = strings.TrimSpace(src)
	if src == "" {
		return c, nil
	}
	for _, part := range strings.Split(src, "&&") {
		part = strings.TrimSpace(part)
		tm, err := parseTerm(part)
		if err != nil {
			return nil, err
		}
		c.terms = append(c.terms, tm)
	}
	return c, nil
}

var comparators = []string{"==", "!=", ">=", "<=", ">", "<"}

func parseTerm(s string) (term, error) {
	for _, op := range comparators {
		idx := strings.Index(s, op)
		if idx <= 0 {
			continue
		}
		key := strings.TrimSpace(s[:idx])
		val := strings.TrimSpace(s[idx+len(op):])
		val = strings.Trim(val, `"`)
		if key == "" || val == "" {
			return term{}, fmt.Errorf("trader: malformed constraint term %q", s)
		}
		return term{key: key, op: op, value: val}, nil
	}
	return term{}, fmt.Errorf("trader: constraint term %q lacks a comparator", s)
}

// matches evaluates the constraint against an offer.
func (c *constraintExpr) matches(o *ServiceOffer) bool {
	for _, tm := range c.terms {
		if !tm.matches(o) {
			return false
		}
	}
	return true
}

func (tm term) matches(o *ServiceOffer) bool {
	if rest, ok := strings.CutPrefix(tm.key, "qos."); ok {
		parts := strings.SplitN(rest, ".", 2)
		if len(parts) != 2 {
			return false
		}
		return matchQoS(o, parts[0], parts[1], tm.op, tm.value)
	}
	actual, ok := o.Properties[tm.key]
	if !ok {
		return false
	}
	return compare(actual, tm.op, tm.value)
}

// matchQoS tests whether a QoS capability can satisfy the comparison.
func matchQoS(o *ServiceOffer, characteristic, param, op, value string) bool {
	for _, q := range o.QoS {
		if q.Characteristic != characteristic {
			continue
		}
		po, ok := q.Param(param)
		if !ok {
			return false
		}
		switch po.Kind {
		case qos.KindNumber:
			want, err := strconv.ParseFloat(value, 64)
			if err != nil {
				return false
			}
			// The capability satisfies the comparison if some value in
			// [Min, Max] does.
			switch op {
			case "==":
				return want >= po.Min && want <= po.Max
			case "!=":
				return po.Min != po.Max || po.Min != want
			case ">=":
				return po.Max >= want
			case ">":
				return po.Max > want
			case "<=":
				return po.Min <= want
			case "<":
				return po.Min < want
			}
		case qos.KindString:
			for _, choice := range po.Choices {
				if compare(choice, op, value) {
					return true
				}
			}
			return false
		case qos.KindBool:
			return compare(strconv.FormatBool(po.Default.Bool), op, value)
		}
	}
	return false
}

// compare applies op to two values, numerically when both parse.
func compare(a, op, b string) bool {
	fa, errA := strconv.ParseFloat(a, 64)
	fb, errB := strconv.ParseFloat(b, 64)
	if errA == nil && errB == nil {
		switch op {
		case "==":
			return fa == fb
		case "!=":
			return fa != fb
		case ">=":
			return fa >= fb
		case "<=":
			return fa <= fb
		case ">":
			return fa > fb
		case "<":
			return fa < fb
		}
		return false
	}
	switch op {
	case "==":
		return a == b
	case "!=":
		return a != b
	case ">=":
		return a >= b
	case "<=":
		return a <= b
	case ">":
		return a > b
	case "<":
		return a < b
	}
	return false
}
