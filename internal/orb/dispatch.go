package orb

import (
	"fmt"
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
	// <= 0 takes defaultQueueDepth.
	QueueDepth int
	// Deadline is the dispatch budget measured from enqueue: a request
	// that waited longer than this is shed at dequeue instead of
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
// whatever handles it: a class worker, or a goroutine of its own when the
// class is unbounded. Jobs are pooled; release returns them.
type dispatchJob struct {
	orb     *ORB
	conn    net.Conn
	peer    string // conn's remote address, rendered once per connection
	writeMu *sync.Mutex
	wg      *sync.WaitGroup // the owning connection's handler group
	order   cdr.ByteOrder
	h       giop.RequestHeader // ObjectKey and context payloads live in scratch
	args    []byte             // lives in scratch
	class   string
	tag     EncodedQoSTag // the request's SCQoS tag (tagCache.fill), handed on to the request
	enq     time.Time

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
// pooling rationale; maxPooledOperation and maxPooledContexts do the same
// for the operation name and the context list, which a peer chooses.
const (
	maxPooledArgs      = 64 << 10
	maxPooledOperation = 128
	maxPooledContexts  = 8
)

// poisonReleased makes release overwrite the scratch it takes back: a reader
// that outlived its request sees garbage at once, and under the race
// detector, where this is on (race_on.go), is reported as a race.
var poisonReleased = raceEnabled

// decode parses a Request message into the job, moving what the request
// keeps out of the reader's reused body into scratch.
func (job *dispatchJob) decode(msg *giop.Message) error {
	d := msg.Decoder()
	h := &job.h
	if err := h.Unmarshal(d); err != nil {
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
	job.args = s[off : off+len(args) : off+len(args)]
	off += len(args)
	for i := range h.Contexts {
		end := off + len(h.Contexts[i].Data)
		h.Contexts[i].Data = s[off:end:end]
		off = end
	}
	h.Principal = nil // unused, and it aliases the reader's body
	job.scratch = s
	job.order = msg.Order
	return nil
}

// serve is the unbounded path: the job's own goroutine handles it.
func (job *dispatchJob) serve() {
	job.orb.handleRequest(job)
	job.finish()
}

// finish releases a job after it was handled or shed.
func (job *dispatchJob) finish() {
	wg := job.wg
	job.release()
	wg.Done()
}

// release scrubs the job and returns it to the pool. Besides its scratch
// and context array the job keeps the operation name it carried: the next
// request it decodes most often names the same operation, and then reuses
// the string (RequestHeader.Unmarshal) instead of allocating it again.
func (job *dispatchJob) release() {
	if poisonReleased {
		for i := range job.scratch {
			job.scratch[i] = 0xDB
		}
	}
	scratch, op, ctxs := job.scratch[:0], job.h.Operation, job.h.Contexts
	if cap(scratch) > maxPooledArgs {
		scratch = make([]byte, 0, 1024)
	}
	if len(op) > maxPooledOperation {
		op = ""
	}
	if cap(ctxs) > maxPooledContexts {
		ctxs = nil
	}
	clear(ctxs) // no payload pointer survives into the next cycle
	*job = dispatchJob{scratch: scratch, run: job.run}
	job.h.Operation, job.h.Contexts = op, ctxs[:0]
	jobPool.Put(job)
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
		p.QueueDepth = defaultQueueDepth
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
// class is unbounded (the caller gives the job a goroutine as before); true
// means the job was either queued or shed — accounted for either way.
// submit never blocks: a full queue sheds instead of back-pressuring the
// connection read loop.
func (d *dispatcher) submit(job *dispatchJob) bool {
	q := d.queueFor(job.class)
	if q.policy.Workers <= 0 {
		return false
	}
	job.enq = time.Now()
	job.wg.Add(1)
	select {
	case q.ch <- job:
	default:
		d.shed(job, shedReasonQueueFull)
		job.finish()
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
			d.orb.handleRequest(job)
		}
		job.finish()
	}
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
			Endpoint:  job.peer,
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
	out := outcomeFromError(exc, job.order)
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
