package orb

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"maqs/internal/cdr"
	"maqs/internal/giop"
	"maqs/internal/netsim"
	"maqs/internal/obs"
	"maqs/internal/resilience"
)

// Options configures an ORB.
type Options struct {
	// Transport supplies dialing and listening. Defaults to plain TCP.
	Transport netsim.Transport
	// Order is the byte order used for outgoing messages. Defaults to
	// big-endian (the CDR canonical order).
	Order cdr.ByteOrder
	// RequestTimeout bounds a synchronous invocation when the caller's
	// context carries no deadline. Defaults to 10 seconds.
	RequestTimeout time.Duration
	// MaxFragment splits outgoing GIOP messages into fragments of at
	// most this many body octets (0 disables fragmentation). Incoming
	// fragmented messages are always reassembled.
	MaxFragment int
	// ConnsPerEndpoint stripes client traffic over up to this many
	// connections per endpoint, picked least-pending per request, so
	// concurrent callers do not serialise on one connection's write
	// mutex. 0 or 1 keeps the single multiplexed connection.
	ConnsPerEndpoint int
	// PipelineDepth caps the reply-expecting requests in flight on each
	// connection. Senders — synchronous and asynchronous alike — block
	// until the window has a free slot, so a pipelining client cannot
	// bury a server (or blow client memory) with an unbounded backlog.
	// 0 (the default) leaves the window unbounded. Orthogonal to
	// ConnsPerEndpoint: the cap is per stripe member.
	PipelineDepth int
	// DispatchWorkers bounds concurrent server-side request handlers per
	// QoS class: each class gets its own queue drained by this many
	// worker goroutines, and requests arriving at a full queue are shed
	// with a TRANSIENT exception instead of spawning without limit.
	// <= 0 (the default) keeps the unbounded goroutine-per-request path.
	DispatchWorkers int
	// DispatchQueueDepth caps requests queued per class ahead of the
	// workers. <= 0 takes defaultQueueDepth (only relevant when
	// dispatch is bounded).
	DispatchQueueDepth int
	// DispatchDeadline sheds queued requests that waited longer than
	// this before reaching a worker — their reply would miss the
	// client's deadline anyway. 0 disables deadline shedding.
	DispatchDeadline time.Duration
	// AdmissionPolicy overrides the dispatch policy per QoS class (the
	// class names match the dispatch telemetry: the negotiated
	// characteristic, or "none" for untagged traffic). Zero fields of
	// the returned policy fall back to the Dispatch* defaults above.
	// The qos layer derives these policies from negotiated contracts;
	// a class's policy is resolved once, at its first request.
	AdmissionPolicy func(class string) ClassPolicy
	// Logger receives diagnostics. Defaults to a discarding logger.
	Logger *slog.Logger
	// Observability enables tracing and metrics on this ORB. Nil (the
	// default) keeps the invocation path on its uninstrumented fast path.
	Observability *obs.Observability
	// Resilience enables client-side retry, backoff and per-endpoint
	// circuit breaking on every invocation. Nil (the default) keeps the
	// pre-policy behaviour: one attempt, no health tracking.
	Resilience *resilience.Policy
}

func (o Options) withDefaults() Options {
	if o.Transport == nil {
		o.Transport = &netsim.TCP{DialTimeout: 5 * time.Second}
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 10 * time.Second
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if o.ConnsPerEndpoint <= 0 {
		o.ConnsPerEndpoint = 1
	}
	return o
}

// ORB is an object request broker instance. One process typically runs one
// ORB per simulated host.
type ORB struct {
	opts    Options
	iiop    *iiopModule
	adapter *Adapter
	res     *resilienceState // nil when no resilience policy is installed
	// dispatcher holds the per-class worker pools; nil when dispatch is
	// unbounded (no DispatchWorkers and no AdmissionPolicy configured).
	dispatcher *dispatcher

	// obsState holds the installed observability bundle together with
	// the pre-resolved server-path instruments; an atomic pointer keeps
	// the per-request read lock-free and allows late installation.
	obsState atomic.Pointer[orbObs]

	// filters is the server-side filter list, published copy-on-write:
	// AddIncomingFilter (rare, under mu) stores a new slice, every dispatch
	// loads the current one without lock or copy.
	filters atomic.Pointer[[]IncomingFilter]

	mu             sync.Mutex
	router         Router
	conns          map[string]*connStripe
	listeners      []net.Listener
	serverConns    map[net.Conn]struct{}
	commandHandler CommandHandler
	endpointHost   string
	endpointPort   uint16
	shutdown       bool

	wg sync.WaitGroup
}

// orbObs bundles the observability handle with the server-path
// instruments, resolved once at installation so the request path does
// single atomic updates instead of registry lookups.
type orbObs struct {
	bundle   *obs.Observability
	requests *obs.Counter
	errors   *obs.Counter
	latency  *obs.Histogram
	// inflight is the unlabeled total of requests inside dispatch.
	inflight *obs.Gauge
	// admitted and shed are the unlabeled admission-control totals;
	// per-class cells live in admitCells (see dims.go).
	admitted *obs.Counter
	shed     *obs.Counter
	// dimCells caches the per-(operation, QoS class) instrument cells
	// (see dims.go): string "op\x00class" -> *dispatchDims.
	dimCells sync.Map
	// admitCells caches the per-class admission instrument cells:
	// class -> *admitDims.
	admitCells sync.Map
	// phaseCells caches the per-class latency-decomposition cells:
	// class -> *phaseDims (see dims.go).
	phaseCells sync.Map
}

// CommandHandler interprets command-tagged requests (the paper's dual use
// of the request). The target names the addressed QoS module; the empty
// string addresses the QoS transport itself.
type CommandHandler interface {
	HandleCommand(target string, req *ServerRequest) error
}

// New constructs an ORB.
func New(opts Options) *ORB {
	o := &ORB{
		opts:        opts.withDefaults(),
		conns:       make(map[string]*connStripe),
		serverConns: make(map[net.Conn]struct{}),
	}
	o.iiop = &iiopModule{orb: o}
	o.adapter = &Adapter{orb: o}
	o.router = routerFunc(func(*Invocation) (TransportModule, error) { return o.iiop, nil })
	if o.opts.DispatchWorkers > 0 || o.opts.AdmissionPolicy != nil {
		o.dispatcher = newDispatcher(o)
	}
	if opts.Observability != nil {
		o.setObservability(opts.Observability)
	}
	if opts.Resilience != nil {
		o.res = newResilienceState(o, opts.Resilience)
	}
	return o
}

// setObservability installs (or, with nil, removes) the tracing and
// metrics bundle. Server-path instruments are resolved here once.
func (o *ORB) setObservability(b *obs.Observability) {
	if b == nil {
		o.obsState.Store(nil)
		return
	}
	o.obsState.Store(&orbObs{
		bundle:   b,
		requests: b.Registry.Counter("maqs_server_requests_total"),
		errors:   b.Registry.Counter("maqs_server_errors_total"),
		latency:  b.Registry.Histogram("maqs_server_dispatch_seconds", nil),
		inflight: b.Registry.Gauge("maqs_server_inflight"),
		admitted: b.Registry.Counter("maqs_server_admitted_total"),
		shed:     b.Registry.Counter("maqs_server_shed_total"),
	})
	registerPoolMetrics(b.Registry)
}

// registerPoolMetrics exposes the buffer-pool telemetry of the encoding
// layers as callback instruments. The underlying atomics are
// process-global (sync.Pools are package state shared by every ORB in
// the process), so the numbers describe the process, not this ORB.
func registerPoolMetrics(r *obs.Registry) {
	r.CounterFunc("maqs_orb_future_pool_hits_total", func() uint64 {
		gets, misses := futurePoolStats()
		if gets < misses {
			return 0
		}
		return gets - misses
	})
	r.CounterFunc("maqs_orb_future_pool_misses_total", func() uint64 {
		_, misses := futurePoolStats()
		return misses
	})
	r.CounterFunc("maqs_cdr_encoder_pool_hits_total", func() uint64 {
		s := cdr.PoolStats()
		if s.Gets < s.Misses {
			return 0
		}
		return s.Gets - s.Misses
	})
	r.CounterFunc("maqs_cdr_encoder_pool_misses_total", func() uint64 {
		return cdr.PoolStats().Misses
	})
	r.CounterFunc("maqs_cdr_encoder_pool_oversize_discards_total", func() uint64 {
		return cdr.PoolStats().Oversize
	})
	r.CounterFunc("maqs_giop_frame_pool_hits_total", func() uint64 {
		s := giop.FramePoolStats()
		if s.Gets < s.Misses {
			return 0
		}
		return s.Gets - s.Misses
	})
	r.CounterFunc("maqs_giop_frame_pool_misses_total", func() uint64 {
		return giop.FramePoolStats().Misses
	})
	r.CounterFunc("maqs_giop_frame_pool_oversize_discards_total", func() uint64 {
		return giop.FramePoolStats().Oversize
	})
	// The frame-size histogram is kept as plain atomics inside giop (it
	// must not import obs); re-shape it into the text exposition's
	// cumulative bucket/sum/count form here.
	for i, bound := range giop.FrameSizeBounds {
		idx := i
		r.CounterFunc(fmt.Sprintf("maqs_giop_frame_bytes_bucket{le=%q}", strconv.Itoa(bound)), func() uint64 {
			return giop.FrameSizes().Cumulative(idx)
		})
	}
	r.CounterFunc(`maqs_giop_frame_bytes_bucket{le="+Inf"}`, func() uint64 {
		return giop.FrameSizes().Count
	})
	r.CounterFunc("maqs_giop_frame_bytes_count", func() uint64 {
		return giop.FrameSizes().Count
	})
	r.CounterFunc("maqs_giop_frame_bytes_sum", func() uint64 {
		return giop.FrameSizes().Sum
	})
}

// Observability returns the installed bundle, or nil.
func (o *ORB) Observability() *obs.Observability {
	if s := o.obsState.Load(); s != nil {
		return s.bundle
	}
	return nil
}

// Tracer returns the installed tracer, or nil (the disabled tracer).
func (o *ORB) Tracer() *obs.Tracer {
	if s := o.obsState.Load(); s != nil {
		return s.bundle.Tracer
	}
	return nil
}

// Metrics returns the installed metrics registry, or nil. All registry
// and instrument methods are nil-safe, so callers may chain through the
// result unconditionally.
func (o *ORB) Metrics() *obs.Registry {
	if s := o.obsState.Load(); s != nil {
		return s.bundle.Registry
	}
	return nil
}

// Flight returns the installed flight recorder, or nil (the disabled
// recorder — all its methods are nil-safe).
func (o *ORB) Flight() *obs.FlightRecorder {
	if s := o.obsState.Load(); s != nil {
		return s.bundle.Flight
	}
	return nil
}

// Logger exposes the ORB's logger for subsystems.
func (o *ORB) Logger() *slog.Logger { return o.opts.Logger }

// Order reports the byte order of the ORB.
func (o *ORB) Order() cdr.ByteOrder { return o.opts.Order }

// RequestTimeout reports the effective per-call deadline applied when a
// caller's context carries none.
func (o *ORB) RequestTimeout() time.Duration { return o.opts.RequestTimeout }

// Adapter returns the object adapter.
func (o *ORB) Adapter() *Adapter { return o.adapter }

// IIOPModule returns the built-in GIOP/IIOP transport module (the default
// delivery path and the fall-back for unassigned QoS bindings).
func (o *ORB) IIOPModule() TransportModule { return o.iiop }

// SetRouter replaces the client-side routing policy (installed by the QoS
// transport).
func (o *ORB) SetRouter(r Router) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if r == nil {
		r = routerFunc(func(*Invocation) (TransportModule, error) { return o.iiop, nil })
	}
	o.router = r
}

// Router returns the client-side routing policy.
func (o *ORB) Router() Router {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.router
}

// SetCommandHandler installs the interpreter for command-tagged requests.
func (o *ORB) SetCommandHandler(h CommandHandler) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.commandHandler = h
}

// AddIncomingFilter appends a server-side filter. Filters run in
// registration order on the way in and in reverse order on the way out.
func (o *ORB) AddIncomingFilter(f IncomingFilter) {
	o.mu.Lock()
	defer o.mu.Unlock()
	old := o.currentFilters()
	filters := append(old[:len(old):len(old)], f)
	o.filters.Store(&filters)
}

func (o *ORB) currentFilters() []IncomingFilter {
	if p := o.filters.Load(); p != nil {
		return *p
	}
	return nil
}

// prepare is what every entry point does before a request can leave:
// validate it, route it, and stamp the default deadline. The deadline rides
// on the invocation as a value instead of in a derived context: everything
// below that spends the budget — the retry loop, the flight record, the
// pipeline window, the reply wait (a synchronous caller's or a Future's),
// each forward hop — reads it through Invocation.budget/defaultWait, counted
// from here.
func (o *ORB) prepare(ctx context.Context, inv *Invocation) (TransportModule, error) {
	if inv.Operation == "" {
		return nil, fmt.Errorf("orb: empty operation name")
	}
	if inv.Target == nil {
		return nil, NewSystemException(ExcBadParam, 1, "invocation without target")
	}
	mod, err := o.Router().Route(inv)
	if err != nil {
		return nil, NewSystemException(ExcTransient, 32, "routing %s: %v", inv.Operation, err)
	}
	inv.deadline = time.Time{}
	if _, hasDeadline := ctx.Deadline(); !hasDeadline {
		inv.deadline = time.Now().Add(o.opts.RequestTimeout)
	}
	return mod, nil
}

// Invoke sends the invocation through the routing layer and waits for its
// outcome. The outcome may itself describe an exception; Invoke returns a
// non-nil error only for local failures (routing, transport setup, a lost
// connection, context cancellation).
func (o *ORB) Invoke(ctx context.Context, inv *Invocation) (*Outcome, error) {
	mod, err := o.prepare(ctx, inv)
	if err != nil {
		return nil, err
	}
	out, err := o.send(ctx, mod, inv)
	return o.follow(ctx, mod, inv, out, err)
}

// follow takes the result of inv's first hop and follows LOCATION_FORWARD
// replies (bounded, to break forward loops). Every hop is a clone of inv,
// so all of them spend its one deadline.
func (o *ORB) follow(ctx context.Context, mod TransportModule, inv *Invocation, out *Outcome, err error) (*Outcome, error) {
	for hops := 0; err == nil && out != nil && out.Status == giop.ReplyLocationForward && inv.ResponseExpected; hops++ {
		if hops == maxForwards {
			return nil, NewSystemException(ExcTransient, 30,
				"location forward chain exceeds %d hops for %s", maxForwards, inv.Operation)
		}
		target, ferr := out.forwardTarget()
		if ferr != nil {
			return nil, NewSystemException(ExcMarshal, 31, "bad forward target: %v", ferr)
		}
		forwarded := inv.Clone()
		forwarded.Target = target
		out, err = o.send(ctx, mod, forwarded)
	}
	return out, err
}

// Endpoint reports the advertised host and port (set by Listen).
func (o *ORB) Endpoint() (host string, port uint16, ok bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.endpointHost, o.endpointPort, o.endpointHost != ""
}

// Listen binds the server side of the ORB to addr ("host:port") and
// starts accepting requests. The first successful Listen determines the
// endpoint advertised in IORs.
func (o *ORB) Listen(addr string) error {
	l, err := o.opts.Transport.Listen(addr)
	if err != nil {
		return fmt.Errorf("orb: listen %s: %w", addr, err)
	}
	boundAddr := l.Addr().String()
	host, portStr, err := net.SplitHostPort(boundAddr)
	if err != nil {
		l.Close()
		return fmt.Errorf("orb: parsing bound address %s: %w", boundAddr, err)
	}
	port, err := strconv.ParseUint(portStr, 10, 16)
	if err != nil {
		l.Close()
		return fmt.Errorf("orb: parsing bound port %s: %w", portStr, err)
	}

	o.mu.Lock()
	if o.shutdown {
		o.mu.Unlock()
		l.Close()
		return fmt.Errorf("orb: listen after shutdown")
	}
	o.listeners = append(o.listeners, l)
	if o.endpointHost == "" {
		o.endpointHost = host
		o.endpointPort = uint16(port)
	}
	o.mu.Unlock()

	o.wg.Add(1)
	go func() {
		defer o.wg.Done()
		o.acceptLoop(l)
	}()
	return nil
}

// Shutdown stops listeners, closes connections and waits for in-flight
// work to drain.
func (o *ORB) Shutdown() {
	o.mu.Lock()
	if o.shutdown {
		o.mu.Unlock()
		o.wg.Wait()
		o.closeDispatcher()
		return
	}
	o.shutdown = true
	listeners := o.listeners
	o.listeners = nil
	conns := make([]*clientConn, 0, len(o.conns))
	for _, st := range o.conns {
		conns = st.live(conns)
	}
	o.conns = make(map[string]*connStripe)
	server := make([]net.Conn, 0, len(o.serverConns))
	for c := range o.serverConns {
		server = append(server, c)
	}
	o.mu.Unlock()

	for _, l := range listeners {
		l.Close()
	}
	for _, c := range conns {
		c.close(NewSystemException(ExcCommFailure, 9, "orb shutdown"))
	}
	for _, c := range server {
		c.Close()
	}
	// Connection read loops (the only dispatch producers) are on o.wg and
	// wait for their own queued requests before returning, so once the
	// wait clears the class queues are empty and the workers can go.
	o.wg.Wait()
	o.closeDispatcher()
}

func (o *ORB) closeDispatcher() {
	if o.dispatcher != nil {
		o.dispatcher.close()
	}
}

// getConn returns a live client connection to addr from the endpoint's
// stripe, dialing a new stripe member when a slot is free. Selection is
// least-pending: the live connection with the fewest outstanding replies
// wins, so concurrent load spreads across the stripe.
func (o *ORB) getConn(addr string) (*clientConn, error) {
	o.mu.Lock()
	if o.shutdown {
		o.mu.Unlock()
		return nil, NewSystemException(ExcCommFailure, 10, "orb is shut down")
	}
	st, ok := o.conns[addr]
	if !ok {
		st = newConnStripe(o.opts.ConnsPerEndpoint)
		o.conns[addr] = st
	}
	best, empty := st.pick()
	if empty < 0 || (best != nil && st.dialing > 0) {
		// Stripe full, or a widening dial is already under way and a
		// live connection can absorb this request meanwhile.
		o.mu.Unlock()
		return best, nil
	}
	st.dialing++
	o.mu.Unlock()

	raw, err := o.opts.Transport.Dial(addr)

	o.mu.Lock()
	st.dialing--
	if err != nil {
		o.mu.Unlock()
		return nil, NewSystemException(ExcTransient, 1, "dialing %s: %v", addr, err)
	}
	if o.shutdown {
		o.mu.Unlock()
		raw.Close()
		return nil, NewSystemException(ExcCommFailure, 10, "orb is shut down")
	}
	slot := st.firstEmpty()
	if slot < 0 {
		// The stripe filled while we dialed; use the least-loaded member.
		best, _ = st.pick()
		o.mu.Unlock()
		raw.Close()
		if best != nil {
			return best, nil
		}
		return nil, NewSystemException(ExcTransient, 1, "connection to %s lost while dialing", addr)
	}
	c := newClientConn(o, addr, raw, slot)
	st.slots[slot] = c
	o.wg.Add(1)
	o.mu.Unlock()
	// Every stripe member dial counts as a widen, including the first:
	// the counter tracks how often load forces new connections.
	o.Metrics().Counter("maqs_stripe_widen_total").Inc()

	go func() {
		defer o.wg.Done()
		c.readLoop()
	}()
	return c, nil
}

// dropConn removes a dead connection from its endpoint stripe.
func (o *ORB) dropConn(addr string, c *clientConn) {
	o.Metrics().Counter("maqs_stripe_evict_total").Inc()
	o.mu.Lock()
	defer o.mu.Unlock()
	if st, ok := o.conns[addr]; ok {
		st.drop(c)
	}
}
