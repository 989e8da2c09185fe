package orb

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"maqs/internal/giop"
	"maqs/internal/obs"
)

// Future is the rendezvous for one asynchronous invocation: the promise
// half lives with the connection read loop (or the delivery goroutine on
// the resilient path), the future half with the caller. Instances are
// pooled: the goroutine that consumes the result through Wait owns the
// object and returns it to the pool. Abandoning paths (context expiry)
// complete the future locally and leave it to the garbage collector — a
// racing reply may still be completing it, and pooling an object with a
// live completer would hand its result to an unrelated call.
//
// A Future supports exactly one waiter. Use either Wait (which consumes
// the future) or the Done/Err/Outcome triple followed by Release.
type Future struct {
	// done is closed when the invocation completes. A fresh channel is
	// armed per pool cycle; close-based signalling keeps the completion
	// race-free under arbitrary Done()/Wait() interleavings, and the
	// close is the ONLY synchronisation point for readers of out/err —
	// completed is merely the completers' first-wins claim ticket and is
	// set before the result fields are written.
	done      chan struct{}
	completed atomic.Bool

	out *Outcome
	err error

	// conn and id identify the in-flight registration, so an abandoning
	// waiter can unregister and send CancelRequest exactly like the
	// synchronous path.
	conn *clientConn
	id   uint32

	// orb and inv allow Wait to follow LOCATION_FORWARD replies through
	// the synchronous machinery (forwards are rare; the fast path never
	// sees them).
	orb *ORB
	inv *Invocation

	// timeout bounds Wait when the caller's context carries no deadline,
	// mirroring Options.RequestTimeout on the synchronous path.
	timeout time.Duration
	// timer enforces timeout in a blocked Wait; it stays with the pooled
	// Future across cycles (release leaves it alone).
	timer deadlineTimer

	// encodeNs carries the marshal+write phase timing from the sending
	// goroutine to the completing one (atomic: a reply can race the
	// sender's stamp; losing the phase sample is benign, a torn read is
	// not).
	encodeNs atomic.Int64

	// fr, rec and start implement flight recording for the asynchronous
	// fast path, which has no delivery goroutine to wrap the call: the
	// record is assembled at dispatch and sealed in complete.
	fr    *obs.FlightRecorder
	rec   obs.FlightRecord
	start time.Time

	// onDone, when set, runs on the completing goroutine before Done is
	// closed (the qos layer hangs its conformance/SLO observation here).
	// It must be cheap and must not block: on the fast path it executes
	// inside the connection's read loop.
	onDone func(*Outcome, error)
}

// futurePoolGets/Misses are process-global pool telemetry (a Get that fell
// through to New is a miss). SetObservability exposes them as callback
// counters.
var (
	futurePoolGets   atomic.Uint64
	futurePoolMisses atomic.Uint64
)

var futurePool = sync.Pool{New: func() any {
	futurePoolMisses.Add(1)
	return new(Future)
}}

// FuturePoolStats reports cumulative Future pool gets and misses
// (process-global, across all ORBs).
func FuturePoolStats() (gets, misses uint64) {
	return futurePoolGets.Load(), futurePoolMisses.Load()
}

// acquireFuture returns a reset pooled Future armed with a fresh done
// channel.
func acquireFuture() *Future {
	futurePoolGets.Add(1)
	f := futurePool.Get().(*Future)
	f.done = make(chan struct{})
	f.completed.Store(false)
	f.encodeNs.Store(0)
	return f
}

// release scrubs the future and returns it to the pool. Only the owner of
// a completed future may call it (Wait does so implicitly).
func (f *Future) release() {
	f.done = nil
	f.out = nil
	f.err = nil
	f.conn = nil
	f.orb = nil
	f.inv = nil
	f.timeout = 0
	f.fr = nil
	f.rec = obs.FlightRecord{}
	f.start = time.Time{}
	f.onDone = nil
	futurePool.Put(f)
}

// complete resolves the future. The first caller wins; later calls (a
// reply racing an abandoning waiter) are no-ops. Flight recording and the
// onDone hook run on the completing goroutine before Done is closed.
func (f *Future) complete(out *Outcome, err error) {
	if !f.completed.CompareAndSwap(false, true) {
		return
	}
	f.out = out
	f.err = err
	if f.fr != nil {
		f.rec.Latency = time.Since(f.start)
		f.rec.At = time.Now()
		f.rec.Attempts = 1
		f.rec.Outcome = outcomeLabel(out, err)
		if enc := f.encodeNs.Load(); enc > 0 {
			f.rec.Phases = &obs.PhaseTimings{EncodeNs: enc}
		}
		if f.rec.Anomaly == "" && (f.rec.Outcome == ExcTimeout || f.rec.Outcome == "deadline-exceeded") {
			f.rec.Anomaly = obs.AnomalyDeadlineMiss
		}
		f.fr.Record(f.rec)
		if f.rec.Anomaly != "" {
			f.fr.Trigger(f.rec.Anomaly, f.rec)
		}
	}
	if f.onDone != nil {
		f.onDone(out, err)
	}
	close(f.done)
}

// Done returns a channel closed when the invocation completes. It composes
// with select; read the result with Err/Outcome and then Release, or call
// Wait (which also consumes the future).
func (f *Future) Done() <-chan struct{} { return f.done }

// Err returns the delivery error once the future is done: nil when an
// Outcome arrived (the outcome itself may still carry a remote exception —
// see Outcome.Err), the local failure otherwise. Before completion it
// returns nil. The done channel, not the completed flag, gates the read:
// close(done) happens after the completer's field writes, so it carries
// the happens-before edge a concurrent poller needs (the flag is set
// before the fields and would let a poller read a torn result).
func (f *Future) Err() error {
	select {
	case <-f.done:
		return f.err
	default:
		return nil
	}
}

// Outcome returns the delivered outcome once the future is done (nil on
// local failure or before completion). See Err for why the done channel
// gates the read.
func (f *Future) Outcome() *Outcome {
	select {
	case <-f.done:
		return f.out
	default:
		return nil
	}
}

// Release returns a completed future to the pool for callers using the
// Done/Err/Outcome protocol instead of Wait. Releasing an incomplete
// future is a no-op (it stays with the garbage collector); the future
// must not be used after Release. Gating on done rather than the
// completed flag keeps a racing Release from pooling the future while
// the completer is still writing its result fields.
func (f *Future) Release() {
	select {
	case <-f.done:
		f.release()
	default:
	}
}

// Wait blocks until the invocation completes or ctx expires, whichever is
// first, and consumes the future: on return the future must not be used
// again. When ctx carries no deadline the ORB's RequestTimeout applies,
// exactly as on the synchronous path. An abandoned call is unregistered
// and cancelled on the wire (best effort), and its flight record carries
// the timeout outcome.
func (f *Future) Wait(ctx context.Context) (*Outcome, error) {
	select {
	case <-f.done:
		return f.finish(ctx)
	default:
	}
	var expire <-chan time.Time
	if _, hasDeadline := ctx.Deadline(); !hasDeadline && f.timeout > 0 {
		expire = f.timer.arm(f.timeout)
	}
	var cause error
	select {
	case <-f.done:
		if expire != nil {
			f.timer.disarm() // finish pools the future
		}
		return f.finish(ctx)
	case <-ctx.Done():
		cause = ctx.Err()
	case <-expire:
		cause = context.DeadlineExceeded
	}
	if cause == context.DeadlineExceeded {
		cause = NewSystemException(ExcTimeout, 1, "async invocation of %s timed out", f.operation())
	}
	if expire != nil {
		f.timer.disarm()
	}
	return nil, f.abandon(cause)
}

func (f *Future) operation() string {
	if f.inv != nil {
		return f.inv.Operation
	}
	return f.rec.Operation
}

// finish hands the result to the waiter and recycles the future. Rare
// LOCATION_FORWARD outcomes are followed synchronously here (the read
// loop cannot re-send).
func (f *Future) finish(ctx context.Context) (*Outcome, error) {
	out, err := f.out, f.err
	if err == nil && out != nil && out.Status == giop.ReplyLocationForward &&
		f.orb != nil && f.inv != nil && f.inv.ResponseExpected {
		target, ferr := out.ForwardTarget()
		if ferr != nil {
			f.release()
			return nil, NewSystemException(ExcMarshal, 31, "bad forward target: %v", ferr)
		}
		forwarded := f.inv.Clone()
		forwarded.Target = target
		o := f.orb
		f.release()
		return o.Invoke(ctx, forwarded)
	}
	f.release()
	return out, err
}

// abandon gives up on an in-flight call: unregister the pending reply,
// cancel on the wire, and complete the future locally with cause so the
// flight record and observers see the timeout. The future is NOT pooled —
// a racing reply may still hold a reference.
func (f *Future) abandon(cause error) error {
	if c := f.conn; c != nil {
		c.unregister(f.id)
		c.sendCancel(f.id)
	}
	f.complete(nil, cause)
	return cause
}

// InvokeAsync dispatches the invocation and returns a Future resolving to
// its outcome. Routing, validation and default-deadline handling match
// Invoke. When the route is the plain IIOP module and no resilience
// policy is installed, the request is written from the calling goroutine
// and the connection read loop completes the future (zero goroutines per
// call — this is the pipelining fast path); otherwise a per-call delivery
// goroutine wraps the full synchronous machinery so retry, breaker and
// mediator semantics are preserved exactly.
//
// Error contract: a non-nil error means the request never registered with
// a connection — it provably never hit the wire, and the failure is a
// retry-safe NotSentError or a validation/routing exception. Failures
// after registration (frame-write errors included) resolve through the
// returned Future instead, as the COMM_FAILURE-class exceptions a
// synchronous call would see.
func (o *ORB) InvokeAsync(ctx context.Context, inv *Invocation) (*Future, error) {
	return o.invokeAsync(ctx, inv, nil)
}

// InvokeAsyncObserved is InvokeAsync with a completion hook: onDone runs
// on the completing goroutine, before the future's Done channel closes.
// The qos layer uses it for async-aware conformance and SLO observation.
func (o *ORB) InvokeAsyncObserved(ctx context.Context, inv *Invocation, onDone func(*Outcome, error)) (*Future, error) {
	return o.invokeAsync(ctx, inv, onDone)
}

// armFlight prepares a future's embedded flight record for the
// asynchronous fast path (no-op without a recorder): the record is
// assembled here at dispatch and sealed by complete.
func (o *ORB) armFlight(ctx context.Context, f *Future, inv *Invocation) {
	fr := o.Flight()
	if fr == nil {
		return
	}
	f.fr = fr
	f.rec = obs.FlightRecord{
		Operation: inv.Operation,
		Binding:   inv.Binding,
		Endpoint:  inv.Target.Profile.Addr(),
		Stripe:    -1,
	}
	if sc := obs.SpanFromContext(ctx).Context(); sc.Valid() {
		f.rec.TraceID = sc.TraceID.String()
		f.rec.SpanID = sc.SpanID.String()
	}
	if dl, ok := ctx.Deadline(); ok {
		f.rec.DeadlineBudget = time.Until(dl)
	}
	f.start = time.Now()
}

// GoFuture runs deliver on its own goroutine and exposes its result as a
// pooled Future. The qos stub uses it to make mediator-driven delivery
// (replication fan-out, failover) asynchronous without the orb layer
// knowing about mediators. timeout bounds Wait when the caller's context
// has no deadline (pass 0 to use the caller's context alone).
func GoFuture(timeout time.Duration, deliver func() (*Outcome, error)) *Future {
	f := acquireFuture()
	f.timeout = timeout
	go func() {
		out, err := deliver()
		f.complete(out, err)
	}()
	return f
}

func (o *ORB) invokeAsync(ctx context.Context, inv *Invocation, onDone func(*Outcome, error)) (*Future, error) {
	if err := validateOperation(inv.Operation); err != nil {
		return nil, err
	}
	if inv.Target == nil {
		return nil, NewSystemException(ExcBadParam, 1, "invocation without target")
	}
	mod, err := o.Router().Route(inv)
	if err != nil {
		return nil, NewSystemException(ExcTransient, 32, "routing %s: %v", inv.Operation, err)
	}

	f := acquireFuture()
	f.orb = o
	f.inv = inv
	f.onDone = onDone
	if _, hasDeadline := ctx.Deadline(); !hasDeadline {
		f.timeout = o.opts.RequestTimeout
	}

	if mod == TransportModule(o.iiop) && o.res == nil && inv.ResponseExpected {
		o.armFlight(ctx, f, inv)
		registered, err := o.iiop.sendAsync(ctx, inv, f)
		if err != nil {
			if registered {
				// The frame write failed after the request entered the
				// pending map: connection teardown owns the future's
				// completion, and a racing closer may still hold the
				// reference, so the future must NOT be pooled (mirror
				// Future.abandon). It resolves with the teardown cause —
				// hand it to the caller so the failure surfaces exactly
				// once, through onDone and Wait, per the InvokeAsync
				// error contract.
				return f, nil
			}
			// Never registered: this goroutine is the future's sole owner
			// and the retry-safe dispatch failure is the caller's to see.
			f.release()
			return nil, err
		}
		return f, nil
	}

	// General path: the delivery goroutine runs the full synchronous
	// stack (flight recording included), so the fast-path recorder stays
	// off.
	go func() {
		out, err := o.Invoke(ctx, inv)
		f.complete(out, err)
	}()
	return f, nil
}
