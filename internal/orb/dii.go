package orb

import (
	"context"
	"fmt"

	"maqs/internal/cdr"
	"maqs/internal/giop"
	"maqs/internal/ior"
)

// ArgFlags marks the direction of a DII argument.
type ArgFlags int

// Argument directions.
const (
	ArgIn ArgFlags = 1 << iota
	ArgOut
	ArgInOut
)

// NamedValue is one argument of a dynamic request.
type NamedValue struct {
	Name  string
	Value cdr.Any
	Flags ArgFlags
}

// Request is the dynamic invocation interface: an operation call assembled
// at runtime from TypeCodes, without generated stubs. The paper's QoS
// transport uses it to drive the module-specific dynamic interfaces.
//
// Marshalling convention (shared with generated stubs): the request body
// carries the in and inout arguments in declaration order; the reply body
// carries the return value followed by the out and inout arguments in
// declaration order.
type Request struct {
	orb        *ORB
	target     *ior.IOR
	operation  string
	args       []NamedValue
	resultType *cdr.TypeCode
	result     cdr.Any
	contexts   giop.ServiceContextList
	oneway     bool
	invoked    bool
}

// CreateRequest starts assembling a dynamic request against target.
func (o *ORB) CreateRequest(target *ior.IOR, operation string) *Request {
	return &Request{
		orb:        o,
		target:     target,
		operation:  operation,
		resultType: cdr.TCVoid,
	}
}

// AddArg appends an argument. It returns the request for chaining.
func (r *Request) AddArg(name string, value cdr.Any, flags ArgFlags) *Request {
	r.args = append(r.args, NamedValue{Name: name, Value: value, Flags: flags})
	return r
}

// SetResultType declares the return TypeCode (default void).
func (r *Request) SetResultType(tc *cdr.TypeCode) *Request {
	r.resultType = tc
	return r
}

// Invoke marshals the in/inout arguments, sends the request and decodes
// the reply. Remote exceptions are returned as *UserException /
// *SystemException errors.
func (r *Request) Invoke(ctx context.Context) error {
	if r.invoked {
		return fmt.Errorf("orb: dynamic request %q invoked twice", r.operation)
	}
	r.invoked = true

	order := r.orb.opts.Order
	e := cdr.NewEncoder(order)
	for _, a := range r.args {
		if a.Flags&(ArgIn|ArgInOut) == 0 {
			continue
		}
		if err := a.Value.Marshal(e); err != nil {
			return NewSystemException(ExcMarshal, 30, "marshalling argument %q of %s: %v", a.Name, r.operation, err)
		}
	}
	out, err := r.orb.Invoke(ctx, &Invocation{
		Target:           r.target,
		Operation:        r.operation,
		Args:             e.Bytes(),
		Contexts:         r.contexts,
		ResponseExpected: !r.oneway,
		Order:            order,
	})
	if err != nil {
		return err
	}
	return r.decodeReply(out)
}

// decodeReply unpacks the reply body into the result and out/inout
// arguments.
func (r *Request) decodeReply(out *Outcome) error {
	if r.oneway {
		return nil
	}
	if err := out.Err(); err != nil {
		return err
	}
	d := out.Decoder()
	if r.resultType != nil && r.resultType.Kind() != cdr.KindVoid {
		v, err := cdr.UnmarshalAny(d, r.resultType)
		if err != nil {
			return NewSystemException(ExcMarshal, 31, "unmarshalling result of %s: %v", r.operation, err)
		}
		r.result = v
	}
	for i := range r.args {
		if r.args[i].Flags&(ArgOut|ArgInOut) == 0 {
			continue
		}
		v, err := cdr.UnmarshalAny(d, r.args[i].Value.Type)
		if err != nil {
			return NewSystemException(ExcMarshal, 32, "unmarshalling out argument %q of %s: %v",
				r.args[i].Name, r.operation, err)
		}
		r.args[i].Value = v
	}
	return nil
}

// Result returns the decoded return value (zero Any for void).
func (r *Request) Result() cdr.Any { return r.result }

// Arg returns the (possibly updated) argument by name.
func (r *Request) Arg(name string) (cdr.Any, bool) {
	for _, a := range r.args {
		if a.Name == name {
			return a.Value, true
		}
	}
	return cdr.Any{}, false
}

// DynamicOp describes one operation of a dynamic skeleton: its argument
// and result TypeCodes plus the implementation.
type DynamicOp struct {
	// Params are the TypeCodes of the in/inout parameters in order.
	Params []*cdr.TypeCode
	// Result is the return TypeCode (nil or TCVoid for void).
	Result *cdr.TypeCode
	// Handler computes the result from the decoded arguments.
	Handler func(args []cdr.Any) (cdr.Any, error)
}

// DynamicServant is a dispatch-by-map servant: the server-side counterpart
// of the DII (a dynamic skeleton interface). QoS module pseudo objects are
// DynamicServants.
type DynamicServant struct {
	// Ops maps operation names to their descriptions.
	Ops map[string]DynamicOp
}

var _ Servant = (*DynamicServant)(nil)

// Invoke implements Servant.
func (s *DynamicServant) Invoke(req *ServerRequest) error {
	op, ok := s.Ops[req.Operation]
	if !ok {
		return NewSystemException(ExcBadOperation, 33, "operation %q not implemented", req.Operation)
	}
	d := req.In()
	args := make([]cdr.Any, 0, len(op.Params))
	for i, tc := range op.Params {
		v, err := cdr.UnmarshalAny(d, tc)
		if err != nil {
			return NewSystemException(ExcMarshal, 34, "decoding argument %d of %q: %v", i, req.Operation, err)
		}
		args = append(args, v)
	}
	res, err := op.Handler(args)
	if err != nil {
		return err
	}
	if op.Result != nil && op.Result.Kind() != cdr.KindVoid {
		if err := res.Marshal(req.Out); err != nil {
			return NewSystemException(ExcMarshal, 35, "encoding result of %q: %v", req.Operation, err)
		}
	}
	return nil
}
