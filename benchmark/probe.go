package main

import (
	"context"
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"maqs/internal/giop"
	"maqs/internal/netsim"
	"maqs/internal/orb"
	"maqs/internal/qos"
	"maqs/internal/qos/transport"
)

// spanKind names the port a span was recorded at. The wrappers sit only
// at ports the paper itself defines (stub/mediator, QoS transport module,
// IIOP connection, skeleton prolog/epilog), so the program under test is
// observed from outside.
type spanKind uint8

const (
	kindCall       spanKind = iota // client Stub.Call (root; one whole cycle on negotiate_churn)
	kindMediator                   // mediator bracket, PreInvoke start to PostInvoke end
	kindInvoke                     // the mediator's next: ORB.Invoke
	kindModule                     // client transport.Module.Send
	kindModuleNext                 // the module's next: plain GIOP/IIOP delivery
	kindConn                       // client connection: request write start to reply read complete
	kindServerConn                 // server connection: request first read to reply written
	kindFilterIn                   // server module ServerFilter.Inbound
	kindFilterOut                  // server module ServerFilter.Outbound
	kindSkeleton                   // servant wrapped around the ServerSkeleton
	kindProlog                     // qos.Impl.Prolog
	kindServant                    // the inner echo servant
	kindEpilog                     // qos.Impl.Epilog
	numKinds
)

var kindNames = [numKinds]string{
	"qos.call", "qos.mediator", "orb.invoke", "transport.module", "transport.module.next",
	"netsim.conn", "netsim.server_conn", "transport.filter.in", "transport.filter.out",
	"qos.skeleton", "qos.prolog", "bench.servant", "qos.epilog",
}

func (k spanKind) String() string { return kindNames[k] }

// span is one recorded interval. Start and End are nanoseconds since the
// Unix epoch, so spans of the client and the server process share one
// axis (both read the same host clock).
type span struct {
	Start, End int64
	// Seq is the per-caller call sequence number where the wrapper knows
	// it (client wrappers always; server wrappers when they see the
	// plaintext payload), else 0.
	Seq uint32
	// Who is the caller index on client spans and the accepted
	// connection's index on server spans.
	Who  uint8
	Kind spanKind
}

// recorder keeps spans in a buffer allocated before the traced window, so
// recording costs two clock reads and one slot claim and produces no
// garbage. It records only while armed.
type recorder struct {
	base    time.Time
	baseNs  int64
	spans   []span
	n       atomic.Int64
	armed   atomic.Bool
	dropped atomic.Int64
}

func newRecorder(capacity int) *recorder {
	now := time.Now()
	return &recorder{base: now, baseNs: now.UnixNano(), spans: make([]span, capacity)}
}

// now returns the current time on the shared axis, advancing with the
// monotonic clock.
func (r *recorder) now() int64 { return r.baseNs + int64(time.Since(r.base)) }

func (r *recorder) add(kind spanKind, who uint8, seq uint32, start, end int64) {
	if !r.armed.Load() {
		return
	}
	i := r.n.Add(1) - 1
	if i >= int64(len(r.spans)) {
		r.dropped.Add(1)
		return
	}
	r.spans[i] = span{Start: start, End: end, Seq: seq, Who: who, Kind: kind}
}

// recorded returns the spans recorded so far.
func (r *recorder) recorded() []span {
	n := r.n.Load()
	if n > int64(len(r.spans)) {
		n = int64(len(r.spans))
	}
	return r.spans[:n]
}

// frameTracker follows GIOP framing on a byte stream so a connection
// wrapper knows when a whole message has passed without decoding it.
type frameTracker struct {
	hdr  [giop.HeaderSize]byte
	have int // header octets seen so far
	body int // body octets still expected
}

// feed consumes p and reports how many messages it completed and whether
// p began a new message.
func (f *frameTracker) feed(p []byte) (completed int, began bool) {
	for len(p) > 0 {
		if f.have < giop.HeaderSize {
			if f.have == 0 {
				began = true
			}
			n := copy(f.hdr[f.have:], p)
			f.have += n
			p = p[n:]
			if f.have < giop.HeaderSize {
				break
			}
			if f.hdr[6]&1 == 1 {
				f.body = int(binary.LittleEndian.Uint32(f.hdr[8:12]))
			} else {
				f.body = int(binary.BigEndian.Uint32(f.hdr[8:12]))
			}
		}
		n := len(p)
		if n > f.body {
			n = f.body
		}
		f.body -= n
		p = p[n:]
		if f.body == 0 {
			f.have = 0
			completed++
		}
	}
	return completed, began
}

// connCounters counts socket calls and bytes on a client's connections.
type connCounters struct {
	writes, reads, bytesOut, bytesIn atomic.Int64
}

type connCounts struct{ Writes, Reads, BytesOut, BytesIn int64 }

func (c *connCounters) snapshot() connCounts {
	return connCounts{c.writes.Load(), c.reads.Load(), c.bytesOut.Load(), c.bytesIn.Load()}
}

func (c connCounts) sub(earlier connCounts) connCounts {
	return connCounts{c.Writes - earlier.Writes, c.Reads - earlier.Reads,
		c.BytesOut - earlier.BytesOut, c.BytesIn - earlier.BytesIn}
}

// clientTransport is the benchmark-owned netsim.Transport under a client
// System: plain loopback TCP whose connections count socket calls and
// bytes, and, when a recorder is set, time each request/reply exchange.
type clientTransport struct {
	tcp      netsim.TCP
	counters *connCounters
	who      uint8
	rec      *recorder // nil when not tracing

	// inspect, when set, sees every written buffer (warm-up only).
	inspect atomic.Pointer[func(p []byte)]

	mu sync.Mutex
	// localAddrs lists the local address of every dialed connection; the
	// server's spans are matched to callers through it.
	localAddrs []string
}

var _ netsim.Transport = (*clientTransport)(nil)

func (t *clientTransport) Dial(addr string) (net.Conn, error) {
	raw, err := t.tcp.Dial(addr)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	t.localAddrs = append(t.localAddrs, raw.LocalAddr().String())
	t.mu.Unlock()
	var conn net.Conn = &countingConn{Conn: raw, t: t}
	if t.rec != nil {
		conn = &timingConn{Conn: conn, rec: t.rec, who: t.who}
	}
	return conn, nil
}

func (t *clientTransport) Listen(addr string) (net.Listener, error) { return t.tcp.Listen(addr) }

func (t *clientTransport) addrs() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.localAddrs...)
}

type countingConn struct {
	net.Conn
	t *clientTransport
}

func (c *countingConn) Write(p []byte) (int, error) {
	if inspect := c.t.inspect.Load(); inspect != nil {
		(*inspect)(p)
	}
	n, err := c.Conn.Write(p)
	c.t.counters.writes.Add(1)
	c.t.counters.bytesOut.Add(int64(n))
	return n, err
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.t.counters.reads.Add(1)
	c.t.counters.bytesIn.Add(int64(n))
	return n, err
}

// timingConn records one span per request/reply exchange on a connection.
// On the client (server false) a span runs from the start of the request's
// write to the read that completes its reply; on the server from the read
// that first delivers a request to the end of its reply's write. Exchanges
// are matched first-in first-out, which is exact when one call at a time
// uses the connection and an aggregate approximation when it is pipelined.
type timingConn struct {
	net.Conn
	rec    *recorder
	who    uint8
	server bool

	in frameTracker // follows the inbound stream

	pending int64 // server: first-read time of the request being read

	// starts is a ring of the start times of exchanges awaiting their end;
	// it never holds more than the pipeline depth.
	mu         sync.Mutex
	starts     [4 * pipelineDepth]int64
	head, tail uint
}

func (c *timingConn) Write(p []byte) (int, error) {
	if c.server {
		n, err := c.Conn.Write(p)
		// The ORB writes each reply with one Write, so a write ends an
		// exchange.
		if start, ok := c.pop(); ok {
			c.rec.add(kindServerConn, c.who, 0, start, c.rec.now())
		}
		return n, err
	}
	c.push(c.rec.now())
	return c.Conn.Write(p)
}

func (c *timingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n == 0 {
		return n, err
	}
	now := c.rec.now()
	completed, began := c.in.feed(p[:n])
	if c.server {
		if began {
			c.pending = now
		}
		for ; completed > 0; completed-- {
			c.push(c.pending)
		}
		return n, err
	}
	for ; completed > 0; completed-- {
		if start, ok := c.pop(); ok {
			c.rec.add(kindConn, c.who, 0, start, now)
		}
	}
	return n, err
}

func (c *timingConn) push(t int64) {
	c.mu.Lock()
	if c.tail-c.head < uint(len(c.starts)) {
		c.starts[c.tail%uint(len(c.starts))] = t
		c.tail++
	}
	c.mu.Unlock()
}

func (c *timingConn) pop() (int64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.head == c.tail {
		return 0, false
	}
	t := c.starts[c.head%uint(len(c.starts))]
	c.head++
	return t, true
}

// serverTransport is the server child's netsim.Transport when tracing:
// accepted connections are timed and numbered, and the table of their
// remote addresses lets the client attribute them to callers.
type serverTransport struct {
	tcp netsim.TCP
	rec *recorder

	mu    sync.Mutex
	peers []string // remote address by connection index
}

var _ netsim.Transport = (*serverTransport)(nil)

func (t *serverTransport) Dial(addr string) (net.Conn, error) { return t.tcp.Dial(addr) }

func (t *serverTransport) Listen(addr string) (net.Listener, error) {
	l, err := t.tcp.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &timingListener{Listener: l, t: t}, nil
}

// connIndex returns the index of the connection from peer, or 255 when
// the peer is unknown.
func (t *serverTransport) connIndex(peer string) uint8 {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, p := range t.peers {
		if p == peer {
			return uint8(i)
		}
	}
	return 255
}

func (t *serverTransport) peerTable() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.peers...)
}

type timingListener struct {
	net.Listener
	t *serverTransport
}

func (l *timingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.t.mu.Lock()
	idx := len(l.t.peers)
	l.t.peers = append(l.t.peers, conn.RemoteAddr().String())
	l.t.mu.Unlock()
	return &timingConn{Conn: conn, rec: l.t.rec, who: uint8(idx), server: true}, nil
}

// callerProbe carries what the client-side wrappers of one caller share:
// the recorder and the sequence number of the call in progress. A caller
// makes one call at a time, so plain fields suffice.
type callerProbe struct {
	rec *recorder
	who uint8
	seq uint32
}

// probeMediator is a delegating qos.DeliveryMediator: it times the
// mediator bracket and, as the bracket's next, ORB.Invoke. inner may be
// nil (an unbound stub or a characteristic without a mediator), in which
// case the bracket measures only the probe itself.
type probeMediator struct {
	inner qos.Mediator
	char  string
	p     *callerProbe
	t0    int64
}

var _ qos.DeliveryMediator = (*probeMediator)(nil)

func (m *probeMediator) Characteristic() string { return m.char }

func (m *probeMediator) PreInvoke(ctx context.Context, inv *orb.Invocation) error {
	m.t0 = m.p.rec.now()
	if m.inner == nil {
		return nil
	}
	return m.inner.PreInvoke(ctx, inv)
}

func (m *probeMediator) Deliver(ctx context.Context, inv *orb.Invocation, next qos.Next) (*orb.Outcome, error) {
	timed := func(ctx context.Context, inv *orb.Invocation) (*orb.Outcome, error) {
		start := m.p.rec.now()
		out, err := next(ctx, inv)
		m.p.rec.add(kindInvoke, m.p.who, m.p.seq, start, m.p.rec.now())
		return out, err
	}
	if dm, ok := m.inner.(qos.DeliveryMediator); ok {
		return dm.Deliver(ctx, inv, timed)
	}
	return timed(ctx, inv)
}

func (m *probeMediator) PostInvoke(ctx context.Context, inv *orb.Invocation, out *orb.Outcome) (*orb.Outcome, error) {
	var err error
	if m.inner != nil {
		out, err = m.inner.PostInvoke(ctx, inv, out)
	}
	m.p.rec.add(kindMediator, m.p.who, m.p.seq, m.t0, m.p.rec.now())
	return out, err
}

// probeModule is a delegating transport.Module. On the client (p set) it
// times Send and the next it hands to the inner module; on the server it
// times the inner ServerFilter.
type probeModule struct {
	transport.Module
	rec *recorder
	p   *callerProbe     // client side
	st  *serverTransport // server side
}

func (m *probeModule) Send(ctx context.Context, inv *orb.Invocation, next transport.Next) (*orb.Outcome, error) {
	start := m.rec.now()
	out, err := m.Module.Send(ctx, inv, func(ctx context.Context, inv *orb.Invocation) (*orb.Outcome, error) {
		s := m.rec.now()
		out, err := next(ctx, inv)
		m.rec.add(kindModuleNext, m.p.who, m.p.seq, s, m.rec.now())
		return out, err
	})
	m.rec.add(kindModule, m.p.who, m.p.seq, start, m.rec.now())
	return out, err
}

func (m *probeModule) ServerFilter() orb.IncomingFilter {
	inner := m.Module.ServerFilter()
	if inner == nil || m.st == nil {
		return inner
	}
	return &probeFilter{inner: inner, st: m.st}
}

// probeFactory wraps a module factory so the loaded module is probed.
func probeFactory(inner transport.Factory, rec *recorder, p *callerProbe, st *serverTransport) transport.Factory {
	return func(t *transport.Transport, config map[string]string) (transport.Module, error) {
		mod, err := inner(t, config)
		if err != nil {
			return nil, err
		}
		return &probeModule{Module: mod, rec: rec, p: p, st: st}, nil
	}
}

type probeFilter struct {
	inner orb.IncomingFilter
	st    *serverTransport
}

func (f *probeFilter) Inbound(req *orb.ServerRequest) error {
	start := f.st.rec.now()
	err := f.inner.Inbound(req)
	end := f.st.rec.now()
	// The arguments are plaintext only after the inner filter ran.
	f.st.add(kindFilterIn, req, start, end)
	return err
}

func (f *probeFilter) Outbound(req *orb.ServerRequest, status giop.ReplyStatus, body []byte) ([]byte, error) {
	start := f.st.rec.now()
	body, err := f.inner.Outbound(req, status, body)
	f.st.add(kindFilterOut, req, start, f.st.rec.now())
	return body, err
}

// add records a server-side span of req: on the connection req arrived on,
// with the call sequence number read from an echo request's plaintext
// arguments (0 for every other operation).
func (t *serverTransport) add(kind spanKind, req *orb.ServerRequest, start, end int64) {
	var seq uint32
	if req.Operation == opEcho {
		_, seq, _ = callIDOf(req.Args)
	}
	t.rec.add(kind, t.connIndex(req.Peer), seq, start, end)
}

// probeServant times a servant's Invoke; it wraps both the ServerSkeleton
// and the inner echo servant.
type probeServant struct {
	inner orb.Servant
	kind  spanKind
	st    *serverTransport
}

func (s *probeServant) Invoke(req *orb.ServerRequest) error {
	start := s.st.rec.now()
	err := s.inner.Invoke(req)
	s.st.add(s.kind, req, start, s.st.rec.now())
	return err
}

// probeImpl is a delegating qos.Impl timing Prolog and Epilog.
type probeImpl struct {
	qos.Impl
	st *serverTransport
}

func (i *probeImpl) Prolog(req *orb.ServerRequest, b *qos.Binding) error {
	start := i.st.rec.now()
	err := i.Impl.Prolog(req, b)
	i.st.add(kindProlog, req, start, i.st.rec.now())
	return err
}

func (i *probeImpl) Epilog(req *orb.ServerRequest, b *qos.Binding, invokeErr error) error {
	start := i.st.rec.now()
	err := i.Impl.Epilog(req, b, invokeErr)
	i.st.add(kindEpilog, req, start, i.st.rec.now())
	return err
}
