package orb

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"maqs/internal/giop"
	"maqs/internal/obs"
)

// ClassPolicy bounds the server-side dispatch resources of one QoS class.
// It is the admission-control half of the paper's separation argument:
// who gets dispatched and who gets shed under overload is middleware
// policy derived from the negotiated contract, never application code.
type ClassPolicy struct {
	// Workers is how many of the class's requests may be inside the
	// handler at once. <= 0 leaves the class unbounded: every request
	// goes straight to its handler.
	Workers int
	// QueueDepth caps requests waiting for one of those places; a request
	// arriving when Workers+QueueDepth are already admitted is shed
	// immediately with a TRANSIENT exception. <= 0 takes defaultQueueDepth.
	QueueDepth int
	// Deadline is the dispatch budget measured from admission: a request
	// that waited longer than this for its place is shed instead of
	// dispatched, because its reply would arrive after the client gave
	// up anyway. 0 disables deadline shedding.
	Deadline time.Duration
}

// defaultQueueDepth is the per-class queue bound when a policy enables
// workers without choosing a depth.
const defaultQueueDepth = 256

// Shed reasons, used as metric labels and in the shed exception text.
const (
	shedReasonQueueFull = "queue-full"
	shedReasonDeadline  = "deadline"
)

// Shed-storm detection: crossing shedStormThreshold sheds within one
// shedStormWindow triggers a flight-recorder dump (further spaced by the
// recorder's own per-kind cooldown).
const (
	shedStormThreshold = 32
	shedStormWindow    = time.Second
)

// gateTable holds the admission gates of one ORB, one per QoS class. A
// class's gate is made at its first request from Options.AdmissionPolicy —
// by the time a characteristic's first tagged request arrives, its
// contract has been negotiated, so contract-driven policies are in place
// before the gate exists. An unbounded class stores a nil gate.
type gateTable struct {
	classes sync.Map // class name (string) → *gate

	// Shed-storm window, shared across classes: overload is a server
	// condition, not a per-class one.
	stormStart atomic.Int64
	stormCount atomic.Uint64
}

// gate bounds one QoS class. Every request of the class still runs on a
// goroutine of its own; the gate limits how many are admitted at all
// (held, checked in the read loop, before a goroutine starts) and how
// many of those are inside the handler at once (slots).
type gate struct {
	policy ClassPolicy
	held   atomic.Int64
	slots  chan struct{}
}

// gateFor returns the class's gate, making it on first sight; nil means
// the class is unbounded. Two read loops racing on a new class may both
// ask the policy, but both get the one gate stored.
func (t *gateTable) gateFor(class string, policy func(string) ClassPolicy) *gate {
	if v, ok := t.classes.Load(class); ok {
		return v.(*gate)
	}
	var g *gate
	if p := policy(class); p.Workers > 0 {
		if p.QueueDepth <= 0 {
			p.QueueDepth = defaultQueueDepth
		}
		g = &gate{policy: p, slots: make(chan struct{}, p.Workers)}
	}
	v, _ := t.classes.LoadOrStore(class, g)
	return v.(*gate)
}

// stormTick counts one shed into the rolling window and reports whether
// this shed crossed the storm threshold.
func (t *gateTable) stormTick() bool {
	now := time.Now().UnixNano()
	start := t.stormStart.Load()
	if now-start > int64(shedStormWindow) {
		if t.stormStart.CompareAndSwap(start, now) {
			t.stormCount.Store(0)
		}
	}
	return t.stormCount.Add(1) == shedStormThreshold
}

// dispatchJob carries one parsed request from the connection read loop to
// the goroutine that handles it. Jobs are pooled; release returns them.
type dispatchJob struct {
	// req is the request handed to filters and servant. decode fills its
	// Args and Order, the read loop its Peer and SCQoS memo, handleRequest
	// the rest; release clears it with the job.
	req     ServerRequest
	orb     *ORB
	conn    net.Conn
	writeMu *sync.Mutex
	wg      *sync.WaitGroup    // the owning connection's handler group
	h       giop.RequestHeader // ObjectKey and context payloads live in scratch
	op      string             // h.Operation as a label (labels, dims.go)
	class   string             // QoS class as a label, "" until labels runs
	gate    *gate              // the class's gate, nil when unbounded
	enq     time.Time          // when the gate admitted the request

	// scratch holds what the request keeps of the frame body — object key,
	// arguments, then the service contexts' payloads — because the read
	// loop reuses the body for the next frame. It stays with the job across
	// pool cycles, as does the backing array of h.Contexts.
	scratch []byte
	// run is serve, bound once when the pool makes the job: `go job.run()`
	// starts the handler without allocating, where `go job.serve()` and
	// `go func() {...}()` each allocate a closure per request.
	run func()
}

var jobPool sync.Pool

// acquireJob returns a scrubbed job from the pool, or a new one.
func acquireJob() *dispatchJob {
	if job, ok := jobPool.Get().(*dispatchJob); ok {
		return job
	}
	job := &dispatchJob{scratch: make([]byte, 0, 1024)}
	job.run = job.serve
	return job
}

// maxPooledArgs caps the scratch a pooled job retains, mirroring cdr's
// pooling rationale; maxPooledContexts does the same for the context list,
// which a peer chooses.
const (
	maxPooledArgs     = 64 << 10
	maxPooledContexts = 8
)

// poisonReleased makes release overwrite the scratch it takes back: a reader
// that outlived its request sees garbage at once, and under the race
// detector, where this is on (race_on.go), is reported as a race.
var poisonReleased = raceEnabled

// decode parses a Request message into the job, moving what the request
// keeps out of the reader's reused body into scratch. The operation name
// comes from the connection's table ops.
func (job *dispatchJob) decode(msg *giop.Message, ops *giop.OperationNames) error {
	d := msg.Decoder()
	h := &job.h
	if err := h.Unmarshal(d, ops); err != nil {
		return err
	}
	args, err := d.ReadOctets()
	if err != nil {
		return fmt.Errorf("request body: %w", err)
	}
	s := append(append(job.scratch[:0], h.ObjectKey...), args...)
	for _, sc := range h.Contexts {
		s = append(s, sc.Data...)
	}
	// Slice only now, the appends may have moved s; clip capacities, so a
	// filter appending to one piece cannot run into the next.
	off := len(h.ObjectKey)
	h.ObjectKey = s[:off:off]
	job.req.Args = s[off : off+len(args) : off+len(args)]
	off += len(args)
	for i := range h.Contexts {
		end := off + len(h.Contexts[i].Data)
		h.Contexts[i].Data = s[off:end:end]
		off = end
	}
	h.Principal = nil // unused, and it aliases the reader's body
	job.scratch = s
	job.req.Order = msg.Order
	return nil
}

// admit takes a request of a bounded class into its gate. Over the
// class's Workers+QueueDepth it sheds the request (queue-full) and reports
// false: the read loop releases the job and starts no goroutine for it.
func (o *ORB) admit(job *dispatchJob) bool {
	_, class := job.labels()
	g := o.gates.gateFor(class, o.opts.AdmissionPolicy)
	if g == nil {
		return true
	}
	job.enq = time.Now()
	if g.held.Add(1) > int64(g.policy.Workers+g.policy.QueueDepth) {
		g.held.Add(-1)
		o.shed(job, shedReasonQueueFull)
		return false
	}
	job.gate = g
	return true
}

// serve runs on the job's own goroutine: it passes the class's gate, if
// the class has one, handles the request and releases the job.
func (job *dispatchJob) serve() {
	g := job.gate
	if g == nil || job.enter(g) {
		job.orb.handleRequest(job)
	}
	if g != nil {
		<-g.slots
		g.held.Add(-1)
	}
	wg := job.wg
	job.release()
	wg.Done()
}

// enter waits for one of the gate's slots. It reports false, having shed
// the request, when the wait outlasted the class's Deadline.
func (job *dispatchJob) enter(g *gate) bool {
	g.slots <- struct{}{}
	o := job.orb
	wait := time.Since(job.enq)
	if g.policy.Deadline > 0 && wait > g.policy.Deadline {
		o.shed(job, shedReasonDeadline)
		return false
	}
	if ob := o.obsState.Load(); ob != nil {
		ob.admitted.Inc()
		ob.admission(job.class).admitted.Inc()
		ob.phase(job.class).queueWait.Observe(wait)
	}
	return true
}

// release scrubs the job and returns it to the pool, keeping its scratch
// and context array. The operation name is not the job's to keep: it
// belongs to the connection's name table (serveConn).
func (job *dispatchJob) release() {
	if poisonReleased {
		for i := range job.scratch {
			job.scratch[i] = 0xDB
		}
	}
	scratch, ctxs := job.scratch[:0], job.h.Contexts
	if cap(scratch) > maxPooledArgs {
		scratch = make([]byte, 0, 1024)
	}
	if cap(ctxs) > maxPooledContexts {
		ctxs = nil
	}
	clear(ctxs) // no payload pointer survives into the next cycle
	*job = dispatchJob{scratch: scratch, run: job.run}
	job.h.Contexts = ctxs[:0]
	jobPool.Put(job)
}

// shed refuses a request: counts it, replies TRANSIENT (retryable — the
// client's retry, breaker and Degrader machinery all key off it) when a
// response is expected, and freezes flight-recorder evidence when the
// shed rate crosses the storm threshold.
func (o *ORB) shed(job *dispatchJob, reason string) {
	if ob := o.obsState.Load(); ob != nil {
		ob.shed.Inc()
		ad := ob.admission(job.class)
		switch reason {
		case shedReasonQueueFull:
			ad.shedQueueFull.Inc()
		default:
			ad.shedDeadline.Inc()
		}
	}
	if o.gates.stormTick() {
		wait := time.Since(job.enq)
		o.Flight().Trigger(obs.AnomalyOverloadShed, obs.FlightRecord{
			Operation: job.h.Operation,
			Binding:   job.class,
			Endpoint:  job.req.Peer,
			Stripe:    -1,
			Outcome:   "shed-" + reason,
			Latency:   wait,
			Phases:    &obs.PhaseTimings{QueueWaitNs: int64(wait)},
		})
		o.opts.Logger.Warn("orb: sustained admission shedding",
			"class", job.class, "reason", reason)
	}
	if !job.h.ResponseExpected {
		return
	}
	order := job.req.Order
	exc := NewSystemException(ExcTransient, 60,
		"request shed by admission control (%s, class %s)", reason, job.class)
	out := outcomeFromError(exc, order)
	e := giop.AcquireFrameEncoder(order)
	rh := giop.ReplyHeader{RequestID: job.h.RequestID, Status: out.Status}
	rh.Marshal(e)
	e.WriteOctets(out.Data)
	job.writeMu.Lock()
	err := giop.WriteFrame(job.conn, giop.MsgReply, e, o.opts.MaxFragment)
	job.writeMu.Unlock()
	e.Release()
	if err != nil {
		o.opts.Logger.Warn("orb: writing shed reply failed", "err", err)
	}
}
