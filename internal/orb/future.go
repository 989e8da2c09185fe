package orb

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"maqs/internal/giop"
	"maqs/internal/obs"
)

// Future is the reply rendezvous of one request — the only one the client
// has: a synchronous call waits on its future right after sending, an
// asynchronous call hands the future to its caller. The promise half lives
// with whoever learns the result (the connection read loop, connection
// teardown, a delivery goroutine, an abandoning waiter), the future half
// with the one waiter.
//
// Futures are pooled under one ownership rule: the waiter that consumes a
// result returns the future to the pool, and only once its completer has
// signed off (state futSettled). An abandoned future — timeout, context
// expiry — is completed locally and left to the garbage collector, timer
// and all: a racing reply or teardown may still be completing it, and
// pooling an object with a live completer would hand its result to an
// unrelated call.
//
// A Future supports exactly one waiter, and Wait, called once, is the one
// way to its result.
type Future struct {
	// sig carries the completion signal: one token per pool cycle. It is
	// made once and survives the cycle, so a call allocates no channel;
	// the result itself is published through state.
	sig chan struct{}
	// state gates every reader of out/err and every return to the pool.
	state atomic.Uint32

	out *Outcome
	err error

	// conn and id identify the in-flight registration, so an abandoning
	// waiter can unregister it and send CancelRequest.
	conn *clientConn
	id   uint32

	// inv is the request (nil for GoFuture): its operation names a timeout
	// and Wait re-sends it when the reply is a LOCATION_FORWARD.
	inv *Invocation
	// deadline is the default deadline stamped at dispatch (zero when the
	// dispatching context carried its own); it bounds a Wait whose context
	// has none.
	deadline time.Time
	// timer enforces the default deadline in a blocked wait; it stays with
	// the pooled Future across cycles (release leaves it alone).
	timer deadlineTimer

	// encodeNs carries the marshal+write phase timing from the sending
	// goroutine to the completing one (atomic: a reply can race the
	// sender's stamp; losing the phase sample is benign, a torn read is
	// not).
	encodeNs atomic.Int64

	// fl is the flight record of a call with no delivery goroutine to wrap
	// it (the asynchronous fast path): opened at dispatch, sealed by
	// complete — or by dispatchAsync when the request never registers.
	fl flight

	// released marks a future back in the pool, so that a second release
	// panics; only race-enabled builds set it.
	released bool

	// onDone, when set, runs on the completing goroutine before the result
	// is published (the qos layer hangs its conformance/SLO observation
	// here). It must be cheap and must not block: on the fast path it
	// executes inside the connection's read loop.
	onDone func(*Outcome, error)
}

// The states of a future's pool cycle, in order.
const (
	futPending uint32 = iota // in flight
	futClaimed               // a completer won the claim and is writing the result
	futDone                  // result published: the waiter may read it
	futSettled               // signal sent: the completer will not touch the future again
)

// deadlineTimer is the timer of a pooled Future, re-armed per call instead
// of allocated per call. Ownership rule: whoever returns the future to the
// pool disarms the timer first; an abandoned future goes to the garbage
// collector timer and all.
type deadlineTimer struct{ t *time.Timer }

// arm starts the timer and returns its channel.
func (dt *deadlineTimer) arm(d time.Duration) <-chan time.Time {
	if dt.t == nil {
		dt.t = time.NewTimer(d)
	} else {
		dt.t.Reset(d)
	}
	return dt.t.C
}

// disarm stops an armed timer and drains a tick that fired unobserved, so
// the next arm cannot see it and fire early.
func (dt *deadlineTimer) disarm() {
	if !dt.t.Stop() {
		select {
		case <-dt.t.C:
		default:
		}
	}
}

// futurePoolGets/Misses are process-global pool telemetry (a Get that fell
// through to New is a miss). setObservability exposes them as callback
// counters.
var (
	futurePoolGets   atomic.Uint64
	futurePoolMisses atomic.Uint64
)

var futurePool = sync.Pool{New: func() any {
	futurePoolMisses.Add(1)
	return &Future{sig: make(chan struct{}, 1)}
}}

// futurePoolStats reports cumulative Future pool gets and misses
// (process-global, across all ORBs).
func futurePoolStats() (gets, misses uint64) {
	return futurePoolGets.Load(), futurePoolMisses.Load()
}

// acquireFuture returns a pooled Future armed for inv's reply, carrying the
// default deadline the dispatch stamped on it.
func acquireFuture(inv *Invocation) *Future {
	futurePoolGets.Add(1)
	f := futurePool.Get().(*Future)
	f.released = false
	f.state.Store(futPending)
	f.encodeNs.Store(0)
	if inv != nil {
		f.inv = inv
		f.deadline = inv.deadline
	}
	return f
}

// release scrubs the future and returns it to the pool. Only the owner of
// a settled future — or of one that never registered with a connection —
// may call it, and only once: under the race detector a second release
// panics instead of pooling one future twice, which would hand it to two
// calls at once.
func (f *Future) release() {
	if raceEnabled {
		if f.released {
			panic("orb: future released twice")
		}
		f.released = true
	}
	f.out = nil
	f.err = nil
	f.conn = nil
	f.inv = nil
	f.deadline = time.Time{}
	if f.fl.fr != nil {
		f.fl = flight{}
	}
	f.onDone = nil
	futurePool.Put(f)
}

// complete resolves the future. The first caller wins; later calls (a
// reply racing an abandoning waiter) are no-ops. Flight recording and the
// onDone hook run on the completing goroutine before the result is
// published.
func (f *Future) complete(out *Outcome, err error) {
	if !f.state.CompareAndSwap(futPending, futClaimed) {
		return
	}
	f.out = out
	f.err = err
	if f.fl.fr != nil {
		f.fl.rec.Attempts = 1
		f.fl.rec.Stripe = f.inv.Stripe - 1
		if enc := f.encodeNs.Load(); enc > 0 {
			f.fl.rec.Phases = &obs.PhaseTimings{EncodeNs: enc}
		}
		f.fl.seal(out, err)
	}
	if f.onDone != nil {
		f.onDone(out, err)
	}
	f.state.Store(futDone)
	// One claim per cycle and a drained channel at acquire: never blocks.
	f.sig <- struct{}{}
	f.state.Store(futSettled)
}

// settled reports whether the completer has signed off, and takes the
// signal out of sig if nobody received it — after which the future may
// re-enter the pool.
func (f *Future) settled() bool {
	if f.state.Load() != futSettled {
		return false
	}
	select {
	case <-f.sig:
	default:
	}
	return true
}

// Wait blocks until the invocation completes or ctx expires, whichever is
// first, and consumes the future: on return the future must not be used
// again. When ctx carries no deadline the default deadline applies, counted
// from dispatch exactly as on the synchronous path. An abandoned call is
// unregistered and cancelled on the wire (best effort), and its flight
// record carries the timeout outcome. A LOCATION_FORWARD reply is followed
// here (the read loop cannot re-send), through the same hop-limited loop as
// a synchronous call's.
func (f *Future) Wait(ctx context.Context) (*Outcome, error) {
	_, ctxBounds := ctx.Deadline()
	var wait time.Duration
	if !ctxBounds && !f.deadline.IsZero() {
		wait = max(time.Until(f.deadline), 1)
	}
	conn, inv := f.conn, f.inv
	out, err := f.await(ctx, wait)
	if err == nil && out != nil && out.Status == giop.ReplyLocationForward && conn != nil {
		if ctxBounds {
			inv.deadline = time.Time{} // Wait's deadline replaces the default for the hops, too
		}
		return conn.orb.follow(ctx, conn.orb.iiop, inv, out, nil)
	}
	return out, err
}

// await blocks until the future completes, ctx expires or wait (when
// positive) runs out, and consumes the future. It is where synchronous and
// asynchronous calls meet again: the one sends and awaits, the other hands
// the future out and awaits in Wait.
func (f *Future) await(ctx context.Context, wait time.Duration) (*Outcome, error) {
	if f.state.Load() < futDone {
		var expire <-chan time.Time
		if wait > 0 {
			expire = f.timer.arm(wait)
		}
		var cause error
		select {
		case <-f.sig:
		case <-ctx.Done():
			cause = ctx.Err()
		case <-expire:
			cause = context.DeadlineExceeded
		}
		if expire != nil {
			f.timer.disarm()
		}
		if cause != nil {
			if cause == context.DeadlineExceeded {
				cause = NewSystemException(ExcTimeout, 1, "invocation of %s timed out", f.operation())
			}
			return nil, f.abandon(cause)
		}
	}
	out, err := f.out, f.err
	if f.settled() {
		f.release()
	}
	return out, err
}

func (f *Future) operation() string {
	if f.inv != nil {
		return f.inv.Operation
	}
	return ""
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

// run resolves the future with deliver's result from a goroutine of its
// own.
func (f *Future) run(deliver func() (*Outcome, error)) *Future {
	go func() { f.complete(deliver()) }()
	return f
}

// GoFuture runs deliver on its own goroutine and exposes its result as a
// pooled Future. The qos stub uses it to make mediator-driven delivery
// (replication fan-out, failover) asynchronous without the orb layer
// knowing about mediators. timeout, counted from now, bounds Wait when the
// waiter's context has no deadline (pass 0 to use that context alone).
func GoFuture(timeout time.Duration, deliver func() (*Outcome, error)) *Future {
	f := acquireFuture(nil)
	if timeout > 0 {
		f.deadline = time.Now().Add(timeout)
	}
	return f.run(deliver)
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
	return o.InvokeAsyncObserved(ctx, inv, nil)
}

// InvokeAsyncObserved is InvokeAsync with a completion hook: onDone runs
// on the completing goroutine, before the future's result is published.
// The qos layer uses it for async-aware conformance and SLO observation.
func (o *ORB) InvokeAsyncObserved(ctx context.Context, inv *Invocation, onDone func(*Outcome, error)) (*Future, error) {
	mod, err := o.prepare(ctx, inv)
	if err != nil {
		return nil, err
	}
	return o.dispatchAsync(ctx, mod, inv, onDone)
}

// dispatchAsync sends a prepared invocation without waiting for its reply.
func (o *ORB) dispatchAsync(ctx context.Context, mod TransportModule, inv *Invocation, onDone func(*Outcome, error)) (*Future, error) {
	f := acquireFuture(inv)
	f.onDone = onDone
	if mod != TransportModule(o.iiop) || o.res != nil || !inv.ResponseExpected {
		// Not the plain IIOP route, a resilience policy to run around the
		// attempt, or no reply to rendezvous on: a delivery goroutine runs
		// the full synchronous stack (flight recording included), so the
		// future's own recorder stays off.
		return f.run(func() (*Outcome, error) {
			out, err := o.send(ctx, mod, inv)
			return o.follow(ctx, mod, inv, out, err)
		}), nil
	}
	f.fl.open(ctx, o, inv)
	if _, err := o.iiop.send(ctx, inv, f); err != nil {
		// Never registered, so nobody else holds f and complete never
		// runs: the flight record is sealed here, as the synchronous path
		// seals it, and the retry-safe dispatch failure is the caller's.
		if f.fl.fr != nil {
			f.fl.rec.Attempts = 1
			f.fl.seal(nil, err)
		}
		f.release()
		return nil, err
	}
	// Registered: whatever happens now — a failed frame write included —
	// reaches the caller exactly once, through onDone and Wait.
	return f, nil
}
