package orb

import (
	"context"
	"fmt"
	"time"

	"maqs/internal/cdr"
	"maqs/internal/giop"
	"maqs/internal/ior"
	"maqs/internal/obs"
)

// maxForwards bounds LOCATION_FORWARD chains so two objects forwarding to
// each other cannot loop a client forever.
const maxForwards = 4

// Invocation is a client-side request travelling towards a target object.
// Mediators (QoS aspect layer) and transport modules (QoS hierarchy layer)
// may rewrite any of its fields before it is put on the wire.
type Invocation struct {
	// Target is the object reference the request is addressed to.
	Target *ior.IOR
	// Operation is the operation name.
	Operation string
	// Args holds the CDR-encoded in/inout arguments.
	Args []byte
	// Contexts are the request service contexts.
	Contexts giop.ServiceContextList
	// ResponseExpected is false for oneway operations.
	ResponseExpected bool
	// Idempotent declares that executing the operation twice is
	// equivalent to executing it once, making it eligible for retry even
	// after the request may have reached the server (see the ORB's
	// resilience policy). Callers that cannot guarantee this leave it
	// false: only failures before the request hit the wire are retried.
	Idempotent bool
	// Binding names the QoS characteristic the call is bound to, if any.
	// Set by the QoS layer; carried into the flight recorder.
	Binding string
	// Stripe reports which connection-stripe slot delivered the request,
	// as slot index + 1 (0 while unset). The transport module writes it
	// on the way out so the flight recorder can attribute the attempt.
	Stripe int
	// Order is the byte order Args are encoded in.
	Order cdr.ByteOrder

	// encodeNs is the measured request marshal + frame write time of the
	// delivery attempt (the "encode" phase), stamped by the connection
	// layer when observability is installed. The resilience layer copies
	// it into the flight record's phase decomposition.
	encodeNs int64

	// deadline is the ORB's default deadline for this delivery: every
	// entry point stamps it at dispatch (ORB.prepare: now +
	// Options.RequestTimeout) when the caller's context carries none, and
	// clears it when the context does. It travels with copies and clones,
	// so transport modules, retries, forward hops and a Future's Wait all
	// spend the one budget. See Invocation.budget.
	deadline time.Time

	// tag memoises the decoded SCQoS context (see QoSTag). It may be
	// shared with other invocations of the binding, so it is replaced,
	// never written through.
	tag *EncodedQoSTag
}

// Clone returns a shallow copy with its own context list (the common need
// of fan-out mediators; Args are treated as immutable). A stage that only
// replaces Args — a transport module wrapping the payload — copies the
// struct instead (cp := *inv) and shares the list.
func (inv *Invocation) Clone() *Invocation {
	cp := *inv
	cp.Contexts = append(giop.ServiceContextList(nil), inv.Contexts...)
	return &cp
}

// budget reports when the delivery must give up: the context's deadline
// when it has one, the default deadline stamped at dispatch otherwise. ok is
// false for an invocation that reached the transport without passing
// through the ORB's entry points under a deadline-less context (a module's
// own handshake request, say); the connection layer then bounds the round
// trip by Options.RequestTimeout itself.
func (inv *Invocation) budget(ctx context.Context) (deadline time.Time, ok bool) {
	if dl, has := ctx.Deadline(); has {
		return dl, true
	}
	return inv.deadline, !inv.deadline.IsZero()
}

// defaultWait is how long the connection layer may wait on this delivery
// beside what ctx enforces: the rest of the stamped default deadline (at
// least a tick, so a spent budget times out at once), fallback for a
// deadline-less delivery that bypassed dispatch, 0 when ctx alone bounds it.
func (inv *Invocation) defaultWait(ctx context.Context, fallback time.Duration) time.Duration {
	if !inv.deadline.IsZero() {
		return max(time.Until(inv.deadline), 1)
	}
	if _, has := ctx.Deadline(); has {
		return 0
	}
	return fallback
}

// QoSTag returns the invocation's SCQoS tag; tagged is false for plain
// traffic. The payload is decoded at most once per invocation — never,
// when the stub tagged it with SetQoSTag; copies and clones inherit the
// result — and a stage that replaces the SCQoS context gets the new
// payload decoded on the next call.
func (inv *Invocation) QoSTag() (tag QoSTag, tagged bool, err error) {
	data, ok := inv.Contexts.Get(giop.SCQoS)
	if !ok {
		return QoSTag{}, false, nil
	}
	if inv.tag == nil || !inv.tag.holds(data) {
		m := new(EncodedQoSTag)
		m.decode(data)
		inv.tag = m
	}
	return inv.tag.get()
}

// SetQoSTag attaches the SCQoS context to the invocation; t comes from
// QoSTag.Encoded. A caller that tags many requests alike (the stub, once per binding; a fan-out mediator,
// once per member) passes the same EncodedQoSTag each time, so tagging
// encodes nothing, no later stage decodes, and an invocation with no other
// context shares the tag's list.
func (inv *Invocation) SetQoSTag(t *EncodedQoSTag) {
	if l := inv.Contexts; len(l) == 0 || len(l) == 1 && l[0].ID == giop.SCQoS {
		inv.Contexts = t.alone[:]
	} else {
		inv.Contexts = l.With(giop.SCQoS, t.data)
	}
	inv.tag = t
}

// Outcome is the client-visible result of an invocation.
type Outcome struct {
	// Status mirrors the GIOP reply status.
	Status giop.ReplyStatus
	// Data holds the CDR-encoded reply body: results for NO_EXCEPTION,
	// a marshalled exception otherwise.
	Data []byte
	// Contexts are the reply service contexts.
	Contexts giop.ServiceContextList
	// Order is the byte order Data is encoded in.
	Order cdr.ByteOrder

	// dec is the decoder Decoder hands out, kept here so reading a reply
	// does not allocate one beside it.
	dec cdr.Decoder
}

// Err converts exceptional outcomes to errors: nil for NO_EXCEPTION, the
// decoded *UserException or *SystemException otherwise.
func (o *Outcome) Err() error {
	switch o.Status {
	case giop.ReplyNoException:
		return nil
	case giop.ReplyUserException:
		exc, err := unmarshalUserException(cdr.NewDecoder(o.Data, o.Order))
		if err != nil {
			return NewSystemException(ExcMarshal, 1, "undecodable user exception: %v", err)
		}
		return exc
	case giop.ReplySystemException:
		exc, err := unmarshalSystemException(cdr.NewDecoder(o.Data, o.Order))
		if err != nil {
			return NewSystemException(ExcMarshal, 2, "undecodable system exception: %v", err)
		}
		return exc
	case giop.ReplyLocationForward:
		to, err := o.forwardTarget()
		if err != nil {
			return NewSystemException(ExcMarshal, 4, "undecodable forward target: %v", err)
		}
		return &ForwardRequest{To: to}
	default:
		return NewSystemException(ExcInternal, 3, "unexpected reply status %v", o.Status)
	}
}

// Decoder returns the outcome's CDR decoder, rewound to the start of the
// data. An outcome has one such decoder, so one reader at a time: a second
// call rewinds the decoder the first call returned.
func (o *Outcome) Decoder() *cdr.Decoder {
	o.dec.Reset(o.Data, o.Order)
	return &o.dec
}

// outcomeFromError wraps an error into an exceptional Outcome, encoding it
// the way a server would.
func outcomeFromError(err error, order cdr.ByteOrder) *Outcome {
	e := cdr.NewEncoder(order)
	switch exc := err.(type) {
	case *UserException:
		exc.Marshal(e)
		return &Outcome{Status: giop.ReplyUserException, Data: e.Bytes(), Order: order}
	case *SystemException:
		exc.Marshal(e)
		return &Outcome{Status: giop.ReplySystemException, Data: e.Bytes(), Order: order}
	case *ForwardRequest:
		exc.To.Marshal(e)
		return &Outcome{Status: giop.ReplyLocationForward, Data: e.Bytes(), Order: order}
	default:
		sys := NewSystemException(ExcInternal, 0, "%v", err)
		sys.Marshal(e)
		return &Outcome{Status: giop.ReplySystemException, Data: e.Bytes(), Order: order}
	}
}

// forwardTarget decodes the new target of a LOCATION_FORWARD outcome.
func (o *Outcome) forwardTarget() (*ior.IOR, error) {
	if o.Status != giop.ReplyLocationForward {
		return nil, fmt.Errorf("orb: outcome is not a location forward")
	}
	return ior.Unmarshal(o.Decoder())
}

// TransportModule delivers invocations to their target. The built-in
// IIOP-style module talks GIOP over the ORB's transport; QoS modules wrap
// or replace that path.
type TransportModule interface {
	// Name identifies the module (e.g. "iiop", "flate", "group").
	Name() string
	// Send delivers the invocation and returns its outcome. For oneway
	// invocations Send returns an empty successful outcome as soon as
	// the request is on the wire.
	Send(ctx context.Context, inv *Invocation) (*Outcome, error)
}

// Router picks the transport module for an invocation. It is the client
// half of the paper's Fig. 3 decision tree.
type Router interface {
	Route(inv *Invocation) (TransportModule, error)
}

// routerFunc adapts a function to the Router interface.
type routerFunc func(inv *Invocation) (TransportModule, error)

// Route implements Router.
func (f routerFunc) Route(inv *Invocation) (TransportModule, error) { return f(inv) }

// ServerRequest is an incoming request under dispatch on the server side.
type ServerRequest struct {
	// ObjectKey addresses the servant within the adapter.
	ObjectKey []byte
	// Operation is the requested operation.
	Operation string
	// Contexts are the request service contexts. Like ObjectKey and Args,
	// the list and its payloads are valid until the request is released
	// (its reply written) and overwritten by the next request after that:
	// whoever keeps a payload longer copies it. QoSTag's strings may be kept.
	Contexts giop.ServiceContextList
	// Args holds the CDR-encoded arguments.
	Args []byte
	// Order is the byte order of Args (replies are encoded likewise).
	Order cdr.ByteOrder
	// Out accumulates the reply body for successful completion. The
	// servant writes results here.
	Out *cdr.Encoder
	// OutContexts accumulates reply service contexts.
	OutContexts giop.ServiceContextList
	// Peer describes the remote endpoint, for diagnostics and accounting.
	Peer string
	// OneWay reports that no response will be sent.
	OneWay bool
	// Span is the server-side dispatch span when the ORB has tracing
	// installed (nil otherwise — all *obs.Span methods are nil-safe).
	// Filters, skeletons and servants hang child spans and events off it.
	Span *obs.Span

	// servantNs is the measured servant execution time (the "servant"
	// phase), stamped by invokeServant when observability is installed.
	servantNs int64

	// tag memoises the decoded SCQoS context (see QoSTag). Requests are
	// pooled: releaseServerRequest clears it with the rest of the struct.
	tag EncodedQoSTag
}

// QoSTag returns the request's SCQoS tag; tagged is false for plain
// traffic. The payload is decoded at most once per request: the transport
// filters, the skeleton, module filters and dispatch telemetry all read
// the same result.
func (r *ServerRequest) QoSTag() (tag QoSTag, tagged bool, err error) {
	return r.tag.lookup(r.Contexts)
}

// In returns a fresh decoder over the request arguments.
func (r *ServerRequest) In() *cdr.Decoder { return cdr.NewDecoder(r.Args, r.Order) }

// Servant is the server-side dispatch interface: both generated skeletons
// and hand-written dynamic servants implement it.
//
// Returning nil sends the contents of req.Out with NO_EXCEPTION; returning
// a *UserException or *SystemException sends that exception; any other
// error is wrapped into an INTERNAL system exception.
type Servant interface {
	Invoke(req *ServerRequest) error
}

// ServantFunc adapts a function to the Servant interface.
type ServantFunc func(req *ServerRequest) error

// Invoke implements Servant.
func (f ServantFunc) Invoke(req *ServerRequest) error { return f(req) }

// IncomingFilter transforms a request before servant dispatch and its
// reply after; server-side QoS modules (e.g. decompression) and the
// monitoring probes are filters.
type IncomingFilter interface {
	// Inbound runs before dispatch; it may rewrite req.Args/Contexts.
	Inbound(req *ServerRequest) error
	// Outbound runs after dispatch with the encoded reply body; it may
	// transform and must return the (possibly rewritten) body.
	Outbound(req *ServerRequest, status giop.ReplyStatus, body []byte) ([]byte, error)
}
