package orb

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"maqs/internal/cdr"
	"maqs/internal/giop"
	"maqs/internal/obs"
)

// ClassPolicy bounds the server-side dispatch resources of one QoS class.
// It is the admission-control half of the paper's separation argument:
// who gets dispatched and who gets shed under overload is middleware
// policy derived from the negotiated contract, never application code.
type ClassPolicy struct {
	// Workers is the number of goroutines draining this class's queue.
	// <= 0 leaves the class on the unbounded goroutine-per-request path
	// (the pre-admission semantics).
	Workers int
	// QueueDepth caps requests waiting for a worker; a request arriving
	// at a full queue is shed immediately with a TRANSIENT exception.
	// <= 0 takes DefaultQueueDepth.
	QueueDepth int
	// Deadline is the dispatch budget measured from enqueue: a request
	// that waited longer than this is shed at dequeue instead of
	// dispatched, because its reply would arrive after the client gave
	// up anyway. 0 disables deadline shedding.
	Deadline time.Duration
}

// DefaultQueueDepth is the per-class queue bound when a policy enables
// workers without choosing a depth.
const DefaultQueueDepth = 256

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

// dispatcher owns the per-QoS-class worker pools of one ORB. Classes are
// materialised lazily at first request, with their policy resolved once
// from Options (per-class AdmissionPolicy overrides over the global
// defaults) — by the time a characteristic's first tagged request
// arrives, its contract has been negotiated, so contract-driven policies
// are in place before the queue exists.
type dispatcher struct {
	orb *ORB

	mu      sync.Mutex
	classes sync.Map // class name (string) → *classQueue
	wg      sync.WaitGroup
	closed  sync.Once

	// Shed-storm window, shared across classes: overload is a server
	// condition, not a per-class one.
	stormStart atomic.Int64
	stormCount atomic.Uint64
}

// classQueue is one QoS class's bounded dispatch lane.
type classQueue struct {
	class  string
	policy ClassPolicy
	ch     chan *dispatchJob
}

// dispatchJob carries one parsed request from the connection read loop to
// a class worker. Jobs are pooled; finish() returns them.
type dispatchJob struct {
	conn    net.Conn
	writeMu *sync.Mutex
	wg      *sync.WaitGroup // the owning connection's handler group
	order   cdr.ByteOrder
	h       *giop.RequestHeader
	args    []byte
	argsBuf *[]byte
	class   string
	tag     EncodedQoSTag // the decode class came from, handed on to the request
	enq     time.Time
}

var jobPool = sync.Pool{New: func() any { return new(dispatchJob) }}

// argsScratchPool recycles the per-request argument copies the server
// makes when handing a request off the connection read loop (the frame
// body is reused for the next read, so arguments must move out). Buffers
// above the retention cap are dropped, mirroring cdr's pooling rationale.
var argsScratchPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

const maxPooledArgs = 64 << 10

// acquireArgs copies src into a pooled scratch buffer.
func acquireArgs(src []byte) ([]byte, *[]byte) {
	bp := argsScratchPool.Get().(*[]byte)
	b := append((*bp)[:0], src...)
	*bp = b
	return b, bp
}

// releaseArgs returns a scratch buffer to the pool.
func releaseArgs(bp *[]byte) {
	if cap(*bp) > maxPooledArgs {
		return
	}
	argsScratchPool.Put(bp)
}

func newDispatcher(o *ORB) *dispatcher {
	return &dispatcher{orb: o}
}

// resolvePolicy computes the effective policy of a class: per-class
// AdmissionPolicy overrides layered over the Options-wide defaults.
func (o *ORB) resolvePolicy(class string) ClassPolicy {
	p := ClassPolicy{
		Workers:    o.opts.DispatchWorkers,
		QueueDepth: o.opts.DispatchQueueDepth,
		Deadline:   o.opts.DispatchDeadline,
	}
	if o.opts.AdmissionPolicy != nil {
		over := o.opts.AdmissionPolicy(class)
		if over.Workers > 0 {
			p.Workers = over.Workers
		}
		if over.QueueDepth > 0 {
			p.QueueDepth = over.QueueDepth
		}
		if over.Deadline > 0 {
			p.Deadline = over.Deadline
		}
	}
	if p.QueueDepth <= 0 {
		p.QueueDepth = DefaultQueueDepth
	}
	return p
}

// queueFor returns the class's lane, creating it (and its workers) on
// first sight. Creation happens only from connection read loops, which
// the ORB drains before closing the dispatcher.
func (d *dispatcher) queueFor(class string) *classQueue {
	if v, ok := d.classes.Load(class); ok {
		return v.(*classQueue)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if v, ok := d.classes.Load(class); ok {
		return v.(*classQueue)
	}
	q := &classQueue{class: class, policy: d.orb.resolvePolicy(class)}
	if q.policy.Workers > 0 {
		q.ch = make(chan *dispatchJob, q.policy.QueueDepth)
		for i := 0; i < q.policy.Workers; i++ {
			d.wg.Add(1)
			go d.worker(q)
		}
	}
	d.classes.Store(class, q)
	return q
}

// submit hands a request to its class lane. It reports false when the
// class is unbounded (the caller dispatches a goroutine as before); true
// means the job was either queued or shed — accounted for either way.
// submit never blocks: a full queue sheds instead of back-pressuring the
// connection read loop.
func (d *dispatcher) submit(conn net.Conn, writeMu *sync.Mutex, handlers *sync.WaitGroup,
	order cdr.ByteOrder, h *giop.RequestHeader, args []byte, argsBuf *[]byte, class string, tag *EncodedQoSTag) bool {
	q := d.queueFor(class)
	if q.policy.Workers <= 0 {
		return false
	}
	job := jobPool.Get().(*dispatchJob)
	*job = dispatchJob{
		conn: conn, writeMu: writeMu, wg: handlers,
		order: order, h: h, args: args, argsBuf: argsBuf,
		class: class, tag: *tag, enq: time.Now(),
	}
	handlers.Add(1)
	select {
	case q.ch <- job:
	default:
		d.shed(job, shedReasonQueueFull)
		d.finish(job)
	}
	return true
}

// worker drains one class lane until the dispatcher closes.
func (d *dispatcher) worker(q *classQueue) {
	defer d.wg.Done()
	for job := range q.ch {
		wait := time.Since(job.enq)
		if q.policy.Deadline > 0 && wait > q.policy.Deadline {
			d.shed(job, shedReasonDeadline)
		} else {
			if ob := d.orb.obsState.Load(); ob != nil {
				ob.admitted.Inc()
				ob.admission(job.class).admitted.Inc()
				ob.phase(job.class).queueWait.Observe(wait)
			}
			d.orb.handleRequest(job.conn, job.writeMu, job.order, job.h, job.args, &job.tag)
		}
		d.finish(job)
	}
}

// finish releases a job's resources after it was handled or shed.
func (d *dispatcher) finish(job *dispatchJob) {
	job.wg.Done()
	releaseArgs(job.argsBuf)
	*job = dispatchJob{}
	jobPool.Put(job)
}

// shed refuses a request: counts it, replies TRANSIENT (retryable — the
// client's retry, breaker and Degrader machinery all key off it) when a
// response is expected, and freezes flight-recorder evidence when the
// shed rate crosses the storm threshold.
func (d *dispatcher) shed(job *dispatchJob, reason string) {
	o := d.orb
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
	if d.stormTick() {
		wait := time.Since(job.enq)
		o.Flight().Trigger(obs.AnomalyOverloadShed, obs.FlightRecord{
			Operation: job.h.Operation,
			Binding:   job.class,
			Endpoint:  job.conn.RemoteAddr().String(),
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
	exc := NewSystemException(ExcTransient, 60,
		"request shed by admission control (%s, class %s)", reason, job.class)
	out := OutcomeFromError(exc, job.order)
	e := giop.AcquireFrameEncoder(job.order)
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

// stormTick counts one shed into the rolling window and reports whether
// this shed crossed the storm threshold.
func (d *dispatcher) stormTick() bool {
	now := time.Now().UnixNano()
	start := d.stormStart.Load()
	if now-start > int64(shedStormWindow) {
		if d.stormStart.CompareAndSwap(start, now) {
			d.stormCount.Store(0)
		}
	}
	return d.stormCount.Add(1) == shedStormThreshold
}

// close shuts the lanes and waits for the workers. The ORB calls it
// after every connection read loop has returned (and with it every
// producer), so the queues drain rather than drop.
func (d *dispatcher) close() {
	d.closed.Do(func() {
		d.classes.Range(func(_, v any) bool {
			q := v.(*classQueue)
			if q.ch != nil {
				close(q.ch)
			}
			return true
		})
		d.wg.Wait()
	})
}
