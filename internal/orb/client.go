package orb

import (
	"context"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"maqs/internal/cdr"
	"maqs/internal/giop"
	"maqs/internal/obs"
)

// iiopModule is the built-in transport module: plain GIOP over the ORB's
// byte transport. It is both the default delivery path and the fall-back
// module the QoS transport uses for unassigned bindings.
type iiopModule struct {
	orb *ORB
}

var _ TransportModule = (*iiopModule)(nil)

// Name implements TransportModule.
func (m *iiopModule) Name() string { return "iiop" }

// Send implements TransportModule: put the request on the wire and wait
// for its reply.
func (m *iiopModule) Send(ctx context.Context, inv *Invocation) (*Outcome, error) {
	return m.send(ctx, inv, nil)
}

// send is the last hop of every request. When the context carries a span,
// the wire leg gets its own child span whose context is injected into the
// request's SCTrace service context — this is the point where the trace
// crosses the process boundary, so the server's dispatch span becomes a
// child of the innermost client-side stage. The span covers what this call
// covers: the round trip when it waits, the dispatch when the caller does.
func (m *iiopModule) send(ctx context.Context, inv *Invocation, async *Future) (*Outcome, error) {
	ctx, sp := obs.StartChild(ctx, "wire.send")
	if sp != nil {
		sp.SetOperation(inv.Operation)
		inv.Contexts = inv.Contexts.With(giop.SCTrace, sp.Context().Traceparent())
	}
	out, sent, err := m.exchange(ctx, inv, async)
	if sp != nil {
		sp.SetAttr("bytes_sent", strconv.Itoa(sent))
		if out != nil {
			sp.SetAttr("bytes_recv", strconv.Itoa(len(out.Data)))
		}
		sp.RecordError(err)
		sp.End()
	}
	return out, err
}

// exchange sends inv over a connection of its endpoint's stripe. With a
// future supplied the caller waits (asynchronous dispatch) and exchange
// returns once the frame is written; without one it awaits the reply
// itself — that, who waits, is all that separates the two. An error means
// the request never registered with the connection (or, for a oneway, that
// its write failed): a future exchange acquired itself has been released,
// a supplied one is back with its caller, and unless the oneway's frame may
// have left, the failure is a retry-safe NotSentError. Every later failure
// resolves through the future.
func (m *iiopModule) exchange(ctx context.Context, inv *Invocation, fut *Future) (out *Outcome, sent int, err error) {
	async := fut != nil
	if !async && inv.ResponseExpected {
		fut = acquireFuture(inv)
	}
	conn, err := m.orb.getConn(inv.Target.Profile.Addr())
	if err != nil {
		err = notSent(err) // the request never left this process
	} else {
		sent, err = conn.send(ctx, inv, fut)
	}
	if err != nil {
		if fut != nil && !async {
			fut.release() // never registered: nobody else holds it
		}
		return nil, 0, err
	}
	switch {
	case async:
		return nil, sent, nil
	case fut == nil:
		return &Outcome{Status: giop.ReplyNoException, Order: m.orb.opts.Order}, sent, nil
	}
	// What remains of the default deadline, less what a full window cost.
	out, err = fut.await(ctx, inv.defaultWait(ctx, m.orb.opts.RequestTimeout))
	return out, sent, err
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

	mu      sync.Mutex
	nextID  uint32
	pending map[uint32]*Future
	err     error // sticky failure
}

func newClientConn(o *ORB, addr string, raw net.Conn, slot int) *clientConn {
	c := &clientConn{
		orb:           o,
		addr:          addr,
		raw:           raw,
		slot:          slot,
		pendingGauge:  o.Metrics().Gauge(`maqs_stripe_pending{endpoint="` + addr + `"}`),
		inflightGauge: o.Metrics().Gauge(`maqs_pipeline_inflight{endpoint="` + addr + `",stripe="` + strconv.Itoa(slot) + `"}`),
		pending:       make(map[uint32]*Future),
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
// pipelining is unbounded). What remains of inv's default deadline bounds
// the blocking wait beside ctx: that deadline travels as a value, not in
// the context, so without this bound a full window against a stalled server
// would block a deadline-less dispatch forever. The timer is armed only on
// the blocked slow path, keeping the uncontended dispatch allocation-free.
// Its failure is a retry-safe NotSentError. Must be called without c.mu
// held: slots are released by the read loop, and blocking under the demux
// lock would deadlock the connection.
func (c *clientConn) acquireWindow(ctx context.Context, inv *Invocation) error {
	if c.window == nil {
		return nil
	}
	select {
	case c.window <- struct{}{}:
		return nil
	default:
	}
	var expire <-chan time.Time
	if wait := inv.defaultWait(ctx, c.orb.opts.RequestTimeout); wait > 0 {
		t := time.NewTimer(wait)
		defer t.Stop()
		expire = t.C
	}
	select {
	case c.window <- struct{}{}:
		return nil
	case <-ctx.Done():
		if ctx.Err() != context.DeadlineExceeded {
			return notSent(ctx.Err())
		}
	case <-expire:
	}
	return notSent(NewSystemException(ExcTimeout, 7, "pipeline window to %s full past deadline", c.addr))
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

// admit is the first half of every send: take a pipeline slot and enter
// fut in the pending map under a fresh request id (a oneway, fut nil, needs
// neither and only draws an id). It fails fast on a dead connection, with
// the slot returned; its failures are retry-safe NotSentErrors, nothing
// having been written.
func (c *clientConn) admit(ctx context.Context, inv *Invocation, fut *Future) (uint32, error) {
	if fut != nil {
		if err := c.acquireWindow(ctx, inv); err != nil {
			return 0, err
		}
	}
	inv.Stripe = c.slot + 1
	c.mu.Lock()
	if err := c.err; err != nil {
		c.mu.Unlock()
		if fut != nil {
			c.releaseWindow(1)
		}
		return 0, notSent(err)
	}
	c.nextID++
	id := c.nextID
	if fut != nil {
		fut.conn, fut.id = c, id
		c.pending[id] = fut
		c.trackPending(1)
	}
	c.mu.Unlock()
	return id, nil
}

// unregister ends id's registration — its reply arrived, or is no longer
// wanted — and returns the future it held with the pipeline slot freed; nil
// when the registration is already gone (matched, cancelled, or drained by
// close).
func (c *clientConn) unregister(id uint32) *Future {
	c.mu.Lock()
	fut, ok := c.pending[id]
	if ok {
		delete(c.pending, id)
		c.trackPending(-1)
	}
	c.mu.Unlock()
	if ok {
		c.releaseWindow(1)
	}
	return fut
}

// marshalRequest encodes inv's request message body under id. The argument
// payload is spliced in as an octet sequence so its CDR alignment is
// self-contained (see package doc).
func marshalRequest(e *cdr.Encoder, id uint32, inv *Invocation) {
	h := giop.RequestHeader{
		Contexts:         inv.Contexts,
		RequestID:        id,
		ResponseExpected: inv.ResponseExpected,
		ObjectKey:        inv.Target.Profile.ObjectKey,
		Operation:        inv.Operation,
	}
	h.Marshal(e)
	e.WriteOctets(inv.Args)
}

// send is the one request writer behind synchronous, asynchronous and
// oneway calls: admit, marshal, write. It returns as soon as the frame is
// on the wire, reporting the encoded size for accounting; the read loop
// resolves fut when the reply arrives, in whatever order replies come.
// With Options.PipelineDepth set it blocks while the window is full.
//
// An error means fut never entered the pending map (a NotSentError) or, for
// a oneway, that the write failed. Once fut is registered its completion
// belongs to the read loop and to teardown: a failed write closes the
// connection, close completes every registered future with the sticky
// cause — possibly from a racing closer still holding the reference — and
// send reports success, the failure being the future's to deliver. So a
// registered future is never pooled by its sender.
func (c *clientConn) send(ctx context.Context, inv *Invocation, fut *Future) (sent int, err error) {
	id, err := c.admit(ctx, inv, fut)
	if err != nil {
		return 0, err
	}

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
	e := giop.AcquireFrameEncoder(c.orb.opts.Order)
	marshalRequest(e, id, inv)
	sent = e.Len()
	c.writeMu.Lock()
	err = giop.WriteFrame(c.raw, giop.MsgRequest, e, c.orb.opts.MaxFragment)
	c.writeMu.Unlock()
	e.Release()
	if err != nil {
		cause := NewSystemException(ExcCommFailure, 2, "writing request to %s: %v", c.addr, err)
		c.close(cause)
		if fut != nil {
			return 0, nil
		}
		return 0, cause
	}
	if ob != nil {
		enc := time.Since(encStart)
		inv.encodeNs = int64(enc)
		if fut != nil {
			// The reply may already be racing in on the read loop; the
			// stamp is atomic so a lost sample stays benign.
			fut.encodeNs.Store(int64(enc))
		}
		ob.phase(inv.Binding).encode.Observe(enc)
	}
	return sent, nil
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

// sendCancel notifies the server that the client gave up on a request.
func (c *clientConn) sendCancel(id uint32) {
	e := giop.AcquireFrameEncoder(c.orb.opts.Order)
	(&giop.CancelRequestHeader{RequestID: id}).Marshal(e)
	c.writeMu.Lock()
	_ = giop.WriteFrame(c.raw, giop.MsgCancelRequest, e, 0)
	c.writeMu.Unlock()
	e.Release()
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
			fut := c.unregister(h.RequestID)
			if fut == nil {
				continue // cancelled or unknown
			}
			out := &Outcome{
				Status:   h.Status,
				Data:     append([]byte(nil), data...),
				Contexts: h.Contexts,
				Order:    msg.Order,
			}
			// Graft returned server spans before completion: the waiter
			// (or the future's onDone) ends the client-side spans, and the
			// sampler must see the server's spans first.
			c.orb.absorbTraceReturn(out.Contexts)
			// Resolving the future here is the hot half of out-of-order
			// reply matching.
			fut.complete(out, nil)
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
	c.pending = make(map[uint32]*Future)
	c.trackPending(int32(-len(pending)))
	c.mu.Unlock()

	c.raw.Close()
	c.orb.dropConn(c.addr, c)
	// Complete every registered future with the cause, promptly, so no
	// waiter — synchronous or not — hangs on a dead connection, and return
	// the pipeline window slots the drained registrations held.
	for _, fut := range pending {
		fut.complete(nil, cause)
	}
	c.releaseWindow(len(pending))
}
