package orb

import (
	"context"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"maqs/internal/giop"
	"maqs/internal/obs"
)

// iiopModule is the built-in transport module: plain GIOP over the ORB's
// byte transport. It is both the default delivery path and the fall-back
// module the QoS transport uses for unassigned bindings.
type iiopModule struct {
	orb *ORB

	// Per-request counters, atomic because account() sits on the hot
	// path of every invocation.
	requestsSent atomic.Uint64
	bytesSent    atomic.Uint64
	bytesRecv    atomic.Uint64
}

var _ TransportModule = (*iiopModule)(nil)

// Name implements TransportModule.
func (m *iiopModule) Name() string { return "iiop" }

// Stats reports cumulative request and byte counters (used by the
// accounting service and the benchmarks).
func (m *iiopModule) Stats() (requests, bytesSent, bytesRecv uint64) {
	return m.requestsSent.Load(), m.bytesSent.Load(), m.bytesRecv.Load()
}

func (m *iiopModule) account(sent, recv int) {
	m.requestsSent.Add(1)
	m.bytesSent.Add(uint64(sent))
	m.bytesRecv.Add(uint64(recv))
}

// Send implements TransportModule. When the context carries a span, the
// wire leg gets its own child span whose context is injected into the
// request's SCTrace service context — this is the point where the trace
// crosses the process boundary, so the server's dispatch span becomes a
// child of the innermost client-side stage.
func (m *iiopModule) Send(ctx context.Context, inv *Invocation) (*Outcome, error) {
	ctx, sp := obs.StartChild(ctx, "wire.send")
	if sp != nil {
		sp.SetOperation(inv.Operation)
		inv.Contexts = inv.Contexts.With(giop.SCTrace, sp.Context().Traceparent())
	}
	addr := inv.Target.Profile.Addr()
	conn, err := m.orb.getConn(addr)
	if err != nil {
		// The request never left this process: mark it retry-safe.
		err = notSent(err)
		sp.RecordError(err)
		sp.End()
		return nil, err
	}
	inv.Stripe = conn.slot + 1
	out, sent, recv, err := conn.roundTrip(ctx, inv)
	if err == nil {
		m.account(sent, recv)
	}
	if sp != nil {
		if out != nil {
			// Graft the server's returned span summaries into our trace
			// before the wire span ends, so the sampler sees the whole
			// tree when the trace quiesces.
			m.orb.absorbTraceReturn(out.Contexts)
		}
		sp.SetAttr("bytes_sent", strconv.Itoa(sent))
		sp.SetAttr("bytes_recv", strconv.Itoa(recv))
		sp.RecordError(err)
		sp.End()
	}
	return out, err
}

// pendingReply is the rendezvous for one in-flight request. Instances are
// pooled: the goroutine that receives from ch owns the object and returns
// it to the pool. Paths that abandon the rendezvous (timeout, write error)
// leave it to the garbage collector — a racing reply may still be sent to
// ch, and pooling a channel with a stale Outcome buffered would hand that
// Outcome to an unrelated future request.
//
// When fut is non-nil the registration belongs to an asynchronous call:
// the read loop resolves the future instead of sending on ch, and the
// pendingReply itself (whose channel was never exposed) goes straight
// back to the pool.
type pendingReply struct {
	ch  chan *Outcome
	fut *Future
	// timer bounds the synchronous wait by the default deadline.
	timer deadlineTimer
}

// deadlineTimer is a timer that lives in a pooled rendezvous (pendingReply,
// Future) and is re-armed per call instead of allocated per call. Ownership
// rule: whoever returns the rendezvous to its pool disarms the timer first;
// an abandoned rendezvous goes to the garbage collector timer and all.
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

// pendingPoolGets/Misses are process-global pool telemetry (a Get that
// fell through to New is a miss). SetObservability exposes them as
// callback counters.
var (
	pendingPoolGets   atomic.Uint64
	pendingPoolMisses atomic.Uint64
)

var pendingPool = sync.Pool{New: func() any {
	pendingPoolMisses.Add(1)
	return &pendingReply{ch: make(chan *Outcome, 1)}
}}

// PendingPoolStats reports cumulative pendingReply pool gets and misses
// (process-global, across all ORBs).
func PendingPoolStats() (gets, misses uint64) {
	return pendingPoolGets.Load(), pendingPoolMisses.Load()
}

// clientConn multiplexes concurrent requests over one connection.
type clientConn struct {
	orb  *ORB
	addr string
	raw  net.Conn
	// slot is the stripe slot this connection occupies (zero-based,
	// fixed at creation); invocations carry it into the flight recorder.
	slot int

	writeMu sync.Mutex // serialises whole messages

	// inFlight counts registered outstanding replies; the endpoint stripe
	// uses it for least-pending connection selection.
	inFlight atomic.Int32
	// pendingGauge mirrors inFlight into the per-endpoint stripe depth
	// gauge; inflightGauge is its per-stripe twin (the pipelining depth
	// signal). Both are resolved once at creation (nil without
	// observability).
	pendingGauge  *obs.Gauge
	inflightGauge *obs.Gauge

	// window, when non-nil, is the pipelining in-flight limiter: a slot
	// is acquired before a reply-expecting request registers and released
	// when its registration ends (reply matched, unregistered, or the
	// connection died). Capacity is Options.PipelineDepth.
	window chan struct{}

	mu            sync.Mutex
	nextID        uint32
	pending       map[uint32]*pendingReply
	pendingLocate map[uint32]chan giop.LocateStatus
	err           error // sticky failure
}

func newClientConn(o *ORB, addr string, raw net.Conn, slot int) *clientConn {
	c := &clientConn{
		orb:           o,
		addr:          addr,
		raw:           raw,
		slot:          slot,
		pendingGauge:  o.Metrics().Gauge(`maqs_stripe_pending{endpoint="` + addr + `"}`),
		inflightGauge: o.Metrics().Gauge(`maqs_pipeline_inflight{endpoint="` + addr + `",stripe="` + strconv.Itoa(slot) + `"}`),
		pending:       make(map[uint32]*pendingReply),
		pendingLocate: make(map[uint32]chan giop.LocateStatus),
	}
	if d := o.opts.PipelineDepth; d > 0 {
		c.window = make(chan struct{}, d)
	}
	return c
}

// trackPending shifts the stripe-selection counter and both exported
// depth gauges.
func (c *clientConn) trackPending(delta int32) {
	c.inFlight.Add(delta)
	c.pendingGauge.Add(int64(delta))
	c.inflightGauge.Add(int64(delta))
}

// acquireWindow blocks until a pipeline slot is free (no-op when
// pipelining is unbounded). timeout, when positive, bounds the blocking
// wait beside ctx: the default deadline travels as a value (on the
// Invocation or the Future), not in the context, so without this bound a
// full window against a stalled server would block a deadline-less
// dispatch forever. Pass 0 when ctx alone bounds the call. The timer is
// armed only on the blocked slow path, keeping the uncontended dispatch
// allocation-free. It must be called without c.mu held: slots are released
// by the read loop, and blocking under the demux lock would deadlock the
// connection.
func (c *clientConn) acquireWindow(ctx context.Context, timeout time.Duration) error {
	if c.window == nil {
		return nil
	}
	select {
	case c.window <- struct{}{}:
		return nil
	default:
	}
	var expire <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expire = t.C
	}
	select {
	case c.window <- struct{}{}:
		return nil
	case <-ctx.Done():
		if ctx.Err() == context.DeadlineExceeded {
			return NewSystemException(ExcTimeout, 7, "pipeline window to %s full past deadline", c.addr)
		}
		return ctx.Err()
	case <-expire:
		return NewSystemException(ExcTimeout, 7, "pipeline window to %s full past deadline", c.addr)
	}
}

// releaseWindow frees n pipeline slots.
func (c *clientConn) releaseWindow(n int) {
	if c.window == nil {
		return
	}
	for ; n > 0; n-- {
		<-c.window
	}
}

// register allocates a request id and, when a response is expected, its
// rendezvous. A non-nil fut registers an asynchronous call: the read loop
// will resolve the future instead of the rendezvous channel. The caller
// must hold a pipeline window slot (acquireWindow) for reply-expecting
// registrations; register fails fast on a dead connection so the slot can
// be returned.
func (c *clientConn) register(wantReply bool, fut *Future) (uint32, *pendingReply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return 0, nil, c.err
	}
	c.nextID++
	id := c.nextID
	if !wantReply {
		return id, nil, nil
	}
	pendingPoolGets.Add(1)
	p := pendingPool.Get().(*pendingReply)
	p.fut = fut
	c.pending[id] = p
	c.trackPending(1)
	return id, p, nil
}

func (c *clientConn) unregister(id uint32) {
	c.mu.Lock()
	p, ok := c.pending[id]
	if ok {
		delete(c.pending, id)
		c.trackPending(-1)
	}
	c.mu.Unlock()
	if ok {
		// An abandoned async registration's pendingReply never exposed
		// its channel; scrub the future reference and recycle it.
		if p.fut != nil {
			p.fut = nil
			pendingPool.Put(p)
		}
		c.releaseWindow(1)
	}
}

// roundTrip sends the invocation and waits for the reply (unless oneway).
// It reports the encoded request and reply sizes for accounting.
func (c *clientConn) roundTrip(ctx context.Context, inv *Invocation) (out *Outcome, sent, recv int, err error) {
	// wait is what remains of the default deadline (0: ctx alone bounds the
	// call). It bounds the window wait and then the reply wait.
	wait := inv.defaultWait(ctx, c.orb.opts.RequestTimeout)
	if inv.ResponseExpected && c.window != nil {
		if werr := c.acquireWindow(ctx, wait); werr != nil {
			// No slot was taken and nothing was sent.
			return nil, 0, 0, notSent(werr)
		}
		wait = inv.defaultWait(ctx, c.orb.opts.RequestTimeout) // less what a full window cost
	}
	id, p, err := c.register(inv.ResponseExpected, nil)
	if err != nil {
		// The pooled connection was already dead; nothing was sent.
		if inv.ResponseExpected {
			c.releaseWindow(1)
		}
		return nil, 0, 0, notSent(err)
	}
	order := c.orb.opts.Order

	// Encode-phase timing covers marshal through frame write; zero cost
	// on the uninstrumented path.
	ob := c.orb.obsState.Load()
	var encStart time.Time
	if ob != nil {
		encStart = time.Now()
	}

	// The request frame is marshalled into a pooled encoder with the GIOP
	// header reserved up front, so header and body leave in one Write and
	// the buffer is recycled as soon as the frame is on the wire.
	e := giop.AcquireFrameEncoder(order)
	h := giop.RequestHeader{
		Contexts:         inv.Contexts,
		RequestID:        id,
		ResponseExpected: inv.ResponseExpected,
		ObjectKey:        inv.Target.Profile.ObjectKey,
		Operation:        inv.Operation,
	}
	h.Marshal(e)
	// The argument payload is spliced in as an octet sequence so its CDR
	// alignment is self-contained (see package doc).
	e.WriteOctets(inv.Args)
	sent = e.Len()

	c.writeMu.Lock()
	err = giop.WriteFrame(c.raw, giop.MsgRequest, e, c.orb.opts.MaxFragment)
	c.writeMu.Unlock()
	e.Release()
	if ob != nil && err == nil {
		enc := time.Since(encStart)
		inv.encodeNs = int64(enc)
		ob.phase(inv.Binding).encode.Observe(enc)
	}
	if err != nil {
		c.close(NewSystemException(ExcCommFailure, 2, "writing request to %s: %v", c.addr, err))
		if p != nil {
			c.unregister(id)
		}
		return nil, 0, 0, NewSystemException(ExcCommFailure, 2, "writing request to %s: %v", c.addr, err)
	}

	if !inv.ResponseExpected {
		return &Outcome{Status: giop.ReplyNoException, Order: order}, sent, 0, nil
	}

	var expire <-chan time.Time
	if wait > 0 {
		expire = p.timer.arm(wait)
	}
	select {
	case out := <-p.ch:
		if expire != nil {
			p.timer.disarm()
		}
		pendingPool.Put(p)
		return out, sent, len(out.Data), nil
	case <-ctx.Done():
		err = ctx.Err()
	case <-expire:
		err = context.DeadlineExceeded
	}
	if err == context.DeadlineExceeded {
		err = NewSystemException(ExcTimeout, 1, "invocation of %s timed out", inv.Operation)
	}
	// Giving up: p stays out of the pool (a racing reply may still land on
	// its channel), so its timer is only stopped, not handed on.
	if expire != nil {
		p.timer.disarm()
	}
	c.unregister(id)
	c.sendCancel(id)
	return nil, sent, 0, err
}

// sendAsync writes the invocation's request frame and returns as soon as
// it is on the wire; the read loop resolves fut when the reply arrives
// (out-of-order replies rendezvous through the pending map exactly as
// concurrent synchronous calls do). It reports the encoded request size
// for accounting. Backpressure: with Options.PipelineDepth set, sendAsync
// blocks until the connection's in-flight window has a free slot, bounded
// by fut's RequestTimeout when ctx carries no deadline.
//
// registered reports whether the future entered the pending map. Once it
// has, the future's completion belongs to connection teardown: a write
// failure here calls close, which drains the pending map and completes
// every drained future with the sticky cause — possibly from a racing
// read-loop closer that is still holding the reference. The caller must
// therefore NEVER pool a future after a registered failure (mirror
// Future.abandon); it resolves with the teardown cause and can be handed
// to the waiter or left to the garbage collector. Failures with
// registered == false are retry-safe NotSentErrors and the caller remains
// the future's sole owner.
func (c *clientConn) sendAsync(ctx context.Context, inv *Invocation, fut *Future) (sent int, registered bool, err error) {
	if err := c.acquireWindow(ctx, fut.timeout); err != nil {
		return 0, false, notSent(err)
	}
	inv.Stripe = c.slot + 1
	if fut.fr != nil {
		fut.rec.Stripe = c.slot
	}
	id, _, err := c.register(true, fut)
	if err != nil {
		c.releaseWindow(1)
		return 0, false, notSent(err)
	}
	fut.conn = c
	fut.id = id

	order := c.orb.opts.Order
	ob := c.orb.obsState.Load()
	var encStart time.Time
	if ob != nil {
		encStart = time.Now()
	}

	e := giop.AcquireFrameEncoder(order)
	h := giop.RequestHeader{
		Contexts:         inv.Contexts,
		RequestID:        id,
		ResponseExpected: true,
		ObjectKey:        inv.Target.Profile.ObjectKey,
		Operation:        inv.Operation,
	}
	h.Marshal(e)
	e.WriteOctets(inv.Args)
	sent = e.Len()

	c.writeMu.Lock()
	err = giop.WriteFrame(c.raw, giop.MsgRequest, e, c.orb.opts.MaxFragment)
	c.writeMu.Unlock()
	e.Release()
	if err != nil {
		// close (ours, or a racing one from the read loop that already set
		// the sticky error) drains the pending map and completes fut with
		// the teardown cause; the unregister is a no-op after the drain but
		// covers the window where no close has swapped the map yet.
		c.close(NewSystemException(ExcCommFailure, 2, "writing request to %s: %v", c.addr, err))
		c.unregister(id)
		return 0, true, NewSystemException(ExcCommFailure, 2, "writing request to %s: %v", c.addr, err)
	}
	if ob != nil {
		enc := time.Since(encStart)
		// The reply may already be racing in on the read loop; the stamp
		// is atomic so a lost sample stays benign.
		fut.encodeNs.Store(int64(enc))
		ob.phase(inv.Binding).encode.Observe(enc)
	}
	return sent, true, nil
}

// absorbTraceReturn decodes a reply's SCTraceReturn service context (the
// server's compact span summaries for this trace) and injects the spans
// into the local tracer, so /trace?trace_id= shows one end-to-end tree.
// Malformed payloads are dropped silently: trace return is best-effort
// telemetry, never worth failing a reply over.
func (o *ORB) absorbTraceReturn(ctxs giop.ServiceContextList) {
	if len(ctxs) == 0 {
		return
	}
	ob := o.obsState.Load()
	if ob == nil {
		return
	}
	payload, ok := ctxs.Get(giop.SCTraceReturn)
	if !ok {
		return
	}
	recs, err := obs.DecodeTraceReturn(payload)
	if err != nil {
		return
	}
	for _, rec := range recs {
		ob.bundle.Tracer.Inject(rec)
	}
}

// sendAsync on the module accounts the request and hands the invocation
// to the connection layer. registered propagates the connection-layer
// ownership contract: once true, the future's completion belongs to
// connection teardown and the caller must not pool it on error.
func (m *iiopModule) sendAsync(ctx context.Context, inv *Invocation, fut *Future) (registered bool, err error) {
	ctx, sp := obs.StartChild(ctx, "wire.send")
	if sp != nil {
		sp.SetOperation(inv.Operation)
		inv.Contexts = inv.Contexts.With(giop.SCTrace, sp.Context().Traceparent())
	}
	addr := inv.Target.Profile.Addr()
	conn, err := m.orb.getConn(addr)
	if err != nil {
		err = notSent(err)
		sp.RecordError(err)
		sp.End()
		return false, err
	}
	sent, registered, err := conn.sendAsync(ctx, inv, fut)
	if err == nil {
		m.requestsSent.Add(1)
		m.bytesSent.Add(uint64(sent))
	}
	if sp != nil {
		sp.SetAttr("bytes_sent", strconv.Itoa(sent))
		sp.RecordError(err)
		sp.End()
	}
	return registered, err
}

// sendCancel notifies the server that the client gave up on a request.
func (c *clientConn) sendCancel(id uint32) {
	e := giop.AcquireFrameEncoder(c.orb.opts.Order)
	(&giop.CancelRequestHeader{RequestID: id}).Marshal(e)
	c.writeMu.Lock()
	_ = giop.WriteFrame(c.raw, giop.MsgCancelRequest, e, 0)
	c.writeMu.Unlock()
	e.Release()
}

// locate issues a LocateRequest and waits for the LocateReply.
func (c *clientConn) locate(ctx context.Context, objectKey []byte) (giop.LocateStatus, error) {
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return 0, err
	}
	c.nextID++
	id := c.nextID
	ch := make(chan giop.LocateStatus, 1)
	c.pendingLocate[id] = ch
	c.mu.Unlock()

	e := giop.AcquireFrameEncoder(c.orb.opts.Order)
	(&giop.LocateRequestHeader{RequestID: id, ObjectKey: objectKey}).Marshal(e)
	c.writeMu.Lock()
	err := giop.WriteFrame(c.raw, giop.MsgLocateRequest, e, 0)
	c.writeMu.Unlock()
	e.Release()
	if err != nil {
		c.close(NewSystemException(ExcCommFailure, 3, "writing locate request: %v", err))
		return 0, NewSystemException(ExcCommFailure, 3, "writing locate request: %v", err)
	}
	select {
	case st := <-ch:
		return st, nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pendingLocate, id)
		c.mu.Unlock()
		return 0, ctx.Err()
	}
}

// readLoop demultiplexes replies until the connection dies. The frame
// reader reuses its body buffer across reads: reply data is copied into
// the Outcome, the header is a stack value and its service contexts are
// copies, so nothing outlives the loop iteration.
func (c *clientConn) readLoop() {
	fr := giop.NewFrameReader(c.raw)
	fr.ReuseBody(true)
	for {
		msg, err := fr.ReadMessage()
		if err != nil {
			c.close(NewSystemException(ExcCommFailure, 4, "connection to %s lost: %v", c.addr, err))
			return
		}
		switch msg.Type {
		case giop.MsgReply:
			d := msg.Decoder()
			var h giop.ReplyHeader
			if err := h.Unmarshal(d); err != nil {
				c.orb.opts.Logger.Warn("orb: dropping malformed reply", "addr", c.addr, "err", err)
				continue
			}
			data, err := d.ReadOctets()
			if err != nil {
				c.orb.opts.Logger.Warn("orb: dropping reply with malformed body", "addr", c.addr, "err", err)
				continue
			}
			c.mu.Lock()
			p, ok := c.pending[h.RequestID]
			if ok {
				delete(c.pending, h.RequestID)
				c.trackPending(-1)
			}
			c.mu.Unlock()
			if !ok {
				continue // cancelled or unknown
			}
			c.releaseWindow(1)
			out := &Outcome{
				Status:   h.Status,
				Data:     append([]byte(nil), data...),
				Contexts: h.Contexts,
				Order:    msg.Order,
			}
			if fut := p.fut; fut != nil {
				// Asynchronous call: resolve the future right here (the
				// hot half of out-of-order reply matching) and recycle
				// the rendezvous, whose channel was never exposed.
				p.fut = nil
				pendingPool.Put(p)
				c.orb.iiop.bytesRecv.Add(uint64(len(out.Data)))
				// Graft returned server spans before completion: the
				// future's onDone ends the client.call span, and the
				// sampler must see the server's spans first.
				c.orb.absorbTraceReturn(out.Contexts)
				fut.complete(out, nil)
				continue
			}
			p.ch <- out
		case giop.MsgLocateReply:
			d := msg.Decoder()
			h, err := giop.UnmarshalLocateReplyHeader(d)
			if err != nil {
				continue
			}
			c.mu.Lock()
			ch, ok := c.pendingLocate[h.RequestID]
			delete(c.pendingLocate, h.RequestID)
			c.mu.Unlock()
			if ok {
				ch <- h.Status
			}
		case giop.MsgCloseConnection:
			c.close(NewSystemException(ExcTransient, 5, "server %s closed the connection", c.addr))
			return
		case giop.MsgMessageError:
			c.close(NewSystemException(ExcCommFailure, 6, "peer %s reported a protocol error", c.addr))
			return
		default:
			c.orb.opts.Logger.Warn("orb: unexpected message on client connection",
				"addr", c.addr, "type", msg.Type.String())
		}
	}
}

// close fails all pending requests with cause and removes the connection
// from the pool.
func (c *clientConn) close(cause *SystemException) {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return
	}
	c.err = cause
	pending := c.pending
	c.pending = make(map[uint32]*pendingReply)
	c.trackPending(int32(-len(pending)))
	locates := c.pendingLocate
	c.pendingLocate = make(map[uint32]chan giop.LocateStatus)
	c.mu.Unlock()

	c.raw.Close()
	c.orb.dropConn(c.addr, c)
	// Fail every rendezvous promptly — synchronous waiters get the
	// exceptional outcome on their channel, asynchronous futures are
	// completed with the cause so no Wait ever hangs on a dead
	// connection — and return the pipeline window slots the drained
	// registrations held.
	for _, p := range pending {
		if fut := p.fut; fut != nil {
			p.fut = nil
			pendingPool.Put(p)
			fut.complete(nil, cause)
			continue
		}
		p.ch <- OutcomeFromError(cause, c.orb.opts.Order)
	}
	c.releaseWindow(len(pending))
	for _, ch := range locates {
		ch <- giop.LocateUnknownObject
	}
}
