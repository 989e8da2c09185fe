package qos

import (
	"context"
	"sync"
	"time"

	"maqs/internal/cdr"
	"maqs/internal/ior"
	"maqs/internal/obs"
	"maqs/internal/orb"
)

// Observation is one measured invocation, fed to monitors.
type Observation struct {
	// Operation invoked.
	Operation string
	// Characteristic of the binding the call travelled under ("" for
	// unbound traffic) — the client-side QoS class label.
	Characteristic string
	// RTT is the round-trip time observed at the stub.
	RTT time.Duration
	// Err is the invocation's error, including remote exceptions.
	Err error
	// ReqBytes and RepBytes are payload sizes (arguments and results).
	ReqBytes, RepBytes int
	// TraceID and SpanID link the observation to its client.call span
	// (and through it the flight record), so a histogram exemplar built
	// from this observation resolves back to the full invocation story.
	// Zero when tracing is off.
	TraceID obs.TraceID
	SpanID  obs.SpanID
	// At is the completion time.
	At time.Time
}

// Observer consumes observations (monitoring probe on the stub).
type Observer func(Observation)

// Stub is the client-side runtime under every generated stub: it carries
// the target reference, the current binding and its mediator, and routes
// each call through the mediator before handing it to the ORB — the
// paper's "each call is intercepted and delegated to the mediator".
type Stub struct {
	orb      *orb.ORB
	registry *Registry
	// invoke is ORB.Invoke, bound once: the continuation every delivery
	// mediator is handed.
	invoke Next

	mu         sync.RWMutex
	target     *ior.IOR
	binding    *Binding
	mediator   Mediator
	observers  []Observer
	idempotent map[string]bool
}

// NewStub wraps a target reference for QoS-capable invocation, using the
// default characteristic registry.
func NewStub(o *orb.ORB, target *ior.IOR) *Stub {
	return NewStubWithRegistry(o, target, defaultRegistry)
}

// NewStubWithRegistry wraps a target using an explicit registry.
func NewStubWithRegistry(o *orb.ORB, target *ior.IOR, r *Registry) *Stub {
	return &Stub{orb: o, registry: r, invoke: o.Invoke, target: target}
}

// ORB returns the stub's broker.
func (s *Stub) ORB() *orb.ORB { return s.orb }

// Registry returns the stub's characteristic registry.
func (s *Stub) Registry() *Registry { return s.registry }

// Target returns the current target reference.
func (s *Stub) Target() *ior.IOR {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.target
}

// Binding returns the active binding, or nil.
func (s *Stub) Binding() *Binding {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.binding
}

// Mediator returns the active mediator, or nil.
func (s *Stub) Mediator() Mediator {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.mediator
}

// SetMediator installs a mediator manually (normally Negotiate does this
// through the registry). A nil mediator detaches QoS behaviour.
func (s *Stub) SetMediator(m Mediator) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mediator = m
}

// AddObserver appends a monitoring probe; all registered observers see
// every observation, in registration order. This lets the metrics sink,
// the SLO engine and a Degrader's WatchSLO coexist on the same stub.
func (s *Stub) AddObserver(o Observer) {
	if o == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Copy-on-write so Invoke can use the slice outside the lock.
	observers := make([]Observer, 0, len(s.observers)+1)
	observers = append(observers, s.observers...)
	s.observers = append(observers, o)
}

// DeclareIdempotent marks operations as safe to execute more than once.
// The ORB's resilience policy may then retry them even after the request
// reached the server; undeclared operations are only retried on failures
// that provably happened before the request hit the wire.
func (s *Stub) DeclareIdempotent(ops ...string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.idempotent == nil {
		s.idempotent = make(map[string]bool, len(ops))
	}
	for _, op := range ops {
		s.idempotent[op] = true
	}
}

// install records a fresh binding and its mediator.
func (s *Stub) install(b *Binding, m Mediator) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.binding = b
	s.mediator = m
}

// clearBinding removes binding and mediator.
func (s *Stub) clearBinding() (Mediator, *Binding) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, b := s.mediator, s.binding
	s.mediator = nil
	s.binding = nil
	return m, b
}

// call is one entry into the stub: the snapshot of the stub's state the
// call runs under, the client span it opened, and its start time. It is
// built once and then only read, so an asynchronous call's completion hook
// captures it by value.
type call struct {
	op         string
	target     *ior.IOR
	binding    *Binding
	mediator   Mediator
	observers  []Observer
	idempotent bool
	span       *obs.Span
	start      time.Time
}

// begin snapshots the stub for one call of op and opens its client span.
func (s *Stub) begin(ctx context.Context, op string) (context.Context, call) {
	s.mu.RLock()
	target, binding, mediator, observers := s.target, s.binding, s.mediator, s.observers
	idempotent := s.idempotent[op]
	s.mu.RUnlock()

	ctx, span := s.orb.Tracer().StartSpan(ctx, "client.call")
	if span != nil {
		span.SetOperation(op)
		if binding != nil {
			span.SetAttr("characteristic", binding.Characteristic)
			span.SetAttr("binding", binding.ID)
		}
	}
	return ctx, call{op: op, target: target, binding: binding, mediator: mediator,
		observers: observers, idempotent: idempotent, span: span, start: time.Now()}
}

// invocation builds one request of the call, tagged with the binding's
// cached SCQoS payload when bound.
func (c call) invocation(s *Stub, args []byte, responseExpected bool) *orb.Invocation {
	inv := &orb.Invocation{
		Target:           c.target,
		Operation:        c.op,
		Args:             args,
		ResponseExpected: responseExpected,
		Idempotent:       c.idempotent,
		Order:            s.orb.Order(),
	}
	if c.binding != nil {
		inv.Binding = c.binding.Characteristic
		inv.SetQoSTag(c.binding.tag)
	}
	return inv
}

// endSpan closes the client span over the call's failure, local or remote.
func (c call) endSpan(out *orb.Outcome, err error) {
	if c.span == nil {
		return
	}
	if err == nil && out != nil {
		err = out.Err()
	}
	c.span.RecordError(err)
	c.span.End()
}

// observe assembles and fans out one Observation to the installed probes.
func (c call) observe(reqBytes int, out *orb.Outcome, err error) {
	if len(c.observers) == 0 {
		return
	}
	o := Observation{
		Operation: c.op,
		RTT:       time.Since(c.start),
		ReqBytes:  reqBytes,
		At:        time.Now(),
	}
	if c.binding != nil {
		o.Characteristic = c.binding.Characteristic
	}
	if c.span != nil {
		if sc := c.span.Context(); sc.Valid() {
			o.TraceID, o.SpanID = sc.TraceID, sc.SpanID
		}
	}
	if err != nil {
		o.Err = err
	} else if out != nil {
		o.Err = out.Err()
		o.RepBytes = len(out.Data)
	}
	for _, observer := range c.observers {
		observer(o)
	}
}

// Invoke performs one operation through the QoS-aware invocation path:
// tag the request with the binding, run the mediator's PreInvoke, deliver
// (through the mediator if it takes over delivery), run PostInvoke, and
// feed the observer.
func (s *Stub) Invoke(ctx context.Context, op string, args []byte, oneway bool) (*orb.Outcome, error) {
	ctx, c := s.begin(ctx, op)
	out, err := s.deliver(ctx, c.invocation(s, args, !oneway), c.mediator)
	c.endSpan(out, err)
	c.observe(len(args), out, err)
	return out, err
}

func (s *Stub) deliver(ctx context.Context, inv *orb.Invocation, mediator Mediator) (*orb.Outcome, error) {
	if mediator == nil {
		return s.orb.Invoke(ctx, inv)
	}
	ctx, span := obs.StartChild(ctx, "client.mediator")
	if span != nil {
		span.SetAttr("characteristic", mediator.Characteristic())
	}
	out, err := s.mediate(ctx, inv, mediator)
	if span != nil {
		span.RecordError(err)
		span.End()
	}
	return out, err
}

// mediate runs the mediator bracket: PreInvoke, delivery (delegated when
// the mediator takes it over), PostInvoke.
func (s *Stub) mediate(ctx context.Context, inv *orb.Invocation, mediator Mediator) (*orb.Outcome, error) {
	if err := mediator.PreInvoke(ctx, inv); err != nil {
		return nil, err
	}
	var out *orb.Outcome
	var err error
	if dm, takesOver := mediator.(DeliveryMediator); takesOver {
		// The continuation handed to delivery mediators is exactly
		// ORB.Invoke — the stub layers nothing between mediator and
		// transport. Mediators rely on this to dispatch per-replica sends
		// through ORB.InvokeAsync directly (see replication's
		// deliverActive); anyone inserting a delivery stage here must
		// also thread it through those async dispatch paths.
		out, err = dm.Deliver(ctx, inv, s.invoke)
	} else {
		out, err = s.orb.Invoke(ctx, inv)
	}
	if err != nil {
		return nil, err
	}
	return mediator.PostInvoke(ctx, inv, out)
}

// InvokeAsync dispatches op without waiting for the reply and returns the
// future resolving to its outcome. The QoS semantics match Invoke exactly:
// the request is binding-tagged, mediators keep their delivery bracket
// (they run on a per-call goroutine), and the span and monitoring
// observers fire when the reply lands — with the asynchronous RTT, which
// measures dispatch-to-completion, not Wait time. Without a mediator the
// call takes the ORB's zero-goroutine pipelining fast path.
func (s *Stub) InvokeAsync(ctx context.Context, op string, args []byte) (*orb.Future, error) {
	ctx, c := s.begin(ctx, op)
	c.span.SetAttr("async", "1")
	inv := c.invocation(s, args, true)
	onDone := func(out *orb.Outcome, err error) {
		c.endSpan(out, err)
		c.observe(len(args), out, err)
	}

	if c.mediator != nil {
		// Mediated delivery needs the full bracket; run it on a delivery
		// goroutine and complete the future from there.
		return orb.GoFuture(s.orb.RequestTimeout(), func() (*orb.Outcome, error) {
			out, err := s.deliver(ctx, inv, c.mediator)
			onDone(out, err)
			return out, err
		}), nil
	}
	fut, err := s.orb.InvokeAsyncObserved(ctx, inv, onDone)
	if err != nil {
		// Per the InvokeAsync error contract, a returned error means the
		// request never registered with a connection, so onDone never ran
		// (and never will): ending the span and feeding the observers here
		// cannot report the call twice. Failures after registration
		// complete the future instead, where onDone owns the span and the
		// observers.
		c.endSpan(nil, err)
		c.observe(len(args), nil, err)
		return nil, err
	}
	return fut, nil
}

// CallAsync is the asynchronous counterpart of Call for generated stubs:
// dispatch now, decode later. The returned future resolves to the raw
// outcome; remote exceptions surface when the caller inspects it (Wait
// then Outcome.Err, exactly as Call would have).
func (s *Stub) CallAsync(ctx context.Context, op string, args []byte) (*orb.Future, error) {
	return s.InvokeAsync(ctx, op, args)
}

// Call is the convenience used by generated stubs: invoke, convert remote
// exceptions to errors, and return a decoder over the results.
func (s *Stub) Call(ctx context.Context, op string, args []byte) (*cdr.Decoder, error) {
	out, err := s.Invoke(ctx, op, args, false)
	if err != nil {
		return nil, err
	}
	if err := out.Err(); err != nil {
		return nil, err
	}
	return out.Decoder(), nil
}

// CallOneWay fires a oneway operation.
func (s *Stub) CallOneWay(ctx context.Context, op string, args []byte) error {
	_, err := s.Invoke(ctx, op, args, true)
	return err
}
