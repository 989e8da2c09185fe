package orb

import (
	"fmt"
	"sync"

	"maqs/internal/obs"
)

// maxLabelPairs caps the distinct (operation, QoS class) pairs an ORB keeps
// server telemetry cells and admission gates for; later pairs fold into
// (otherLabel, otherLabel).
const (
	maxLabelPairs = 64
	otherLabel    = "other"
)

// labelTable is the ORB-wide table of the (operation, class) pairs the
// server has admitted as labels. Both come off the wire before any servant
// is resolved — the operation name and the SCQoS tag's characteristic are
// the peer's choice — so a peer inventing names reaches the fixed cap and
// then lands on one "other" cell and gate, instead of growing cells and
// gates without bound.
type labelTable struct {
	pairs sync.Map // [2]string{op, class} -> struct{}
	mu    sync.Mutex
	n     int
}

func (t *labelTable) intern(op, class string) (string, string) {
	k := [2]string{op, class}
	if _, ok := t.pairs.Load(k); ok {
		return op, class
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.pairs.Load(k); ok {
		return op, class
	}
	if t.n == maxLabelPairs {
		return otherLabel, otherLabel
	}
	t.n++
	t.pairs.Store(k, struct{}{})
	return op, class
}

// labels returns the job's (operation, class) labels, interned once.
func (job *dispatchJob) labels() (op, class string) {
	if job.class == "" {
		job.op, job.class = job.orb.labels.intern(job.h.Operation, job.req.tag.class(job.h.Contexts))
	}
	return job.op, job.class
}

// dispatchDims is one (operation, QoS class) cell of the server's
// dispatch telemetry: its own request/error counters, latency histogram
// and in-flight gauge, all pre-resolved so the request path does atomic
// updates only.
type dispatchDims struct {
	requests *obs.Counter
	errors   *obs.Counter
	latency  *obs.Histogram
	inflight *obs.Gauge
}

// dims returns the instrument cell for (op, class), creating and caching
// it on first sight. The labels come from the ORB's labelTable, which
// bounds the cardinality.
func (ob *orbObs) dims(op, class string) *dispatchDims {
	key := [2]string{op, class}
	if v, ok := ob.dimCells.Load(key); ok {
		return v.(*dispatchDims)
	}
	labels := fmt.Sprintf("{op=%q,class=%q}", op, class)
	d := &dispatchDims{
		requests: ob.bundle.Registry.Counter("maqs_server_requests_total" + labels),
		errors:   ob.bundle.Registry.Counter("maqs_server_errors_total" + labels),
		latency:  ob.bundle.Registry.Histogram("maqs_server_dispatch_seconds", nil, "op", op, "class", class),
		inflight: ob.bundle.Registry.Gauge("maqs_server_inflight" + labels),
	}
	v, _ := ob.dimCells.LoadOrStore(key, d)
	return v.(*dispatchDims)
}

// admitDims is one QoS class's admission-control telemetry cell:
// admitted requests and sheds split by reason, pre-resolved so the
// gates do atomic increments only.
type admitDims struct {
	admitted      *obs.Counter
	shedQueueFull *obs.Counter
	shedDeadline  *obs.Counter
}

// admission returns the admission cell for a class, creating and caching
// it on first sight (cardinality bounded like dims).
func (ob *orbObs) admission(class string) *admitDims {
	if v, ok := ob.admitCells.Load(class); ok {
		return v.(*admitDims)
	}
	a := &admitDims{
		admitted:      ob.bundle.Registry.Counter(fmt.Sprintf("maqs_server_admitted_total{class=%q}", class)),
		shedQueueFull: ob.bundle.Registry.Counter(fmt.Sprintf("maqs_server_shed_total{class=%q,reason=%q}", class, "queue-full")),
		shedDeadline:  ob.bundle.Registry.Counter(fmt.Sprintf("maqs_server_shed_total{class=%q,reason=%q}", class, "deadline")),
	}
	v, _ := ob.admitCells.LoadOrStore(class, a)
	return v.(*admitDims)
}

// phaseDims is one QoS class's latency-decomposition cell: a labeled
// histogram per pipeline phase, pre-resolved so the request path does
// atomic updates only. Phase semantics match obs.PhaseTimings: encode
// is client-side marshal + frame write, queueWait the wait at a bounded
// class's admission gate, dispatch the server routing/filter overhead around the
// servant, servant the method itself, replyWire the reply marshal +
// frame write.
type phaseDims struct {
	encode    *obs.Histogram
	queueWait *obs.Histogram
	dispatch  *obs.Histogram
	servant   *obs.Histogram
	replyWire *obs.Histogram
}

// phase returns the phase cell for a QoS class, creating and caching it
// on first sight (cardinality bounded by the server's labelTable, and on
// the client by its own bindings, times the five fixed phases).
func (ob *orbObs) phase(class string) *phaseDims {
	if class == "" {
		class = "none"
	}
	if v, ok := ob.phaseCells.Load(class); ok {
		return v.(*phaseDims)
	}
	hist := func(phase string) *obs.Histogram {
		return ob.bundle.Registry.Histogram("maqs_phase_seconds", nil, "class", class, "phase", phase)
	}
	p := &phaseDims{
		encode:    hist("encode"),
		queueWait: hist("queue_wait"),
		dispatch:  hist("dispatch"),
		servant:   hist("servant"),
		replyWire: hist("reply_wire"),
	}
	v, _ := ob.phaseCells.LoadOrStore(class, p)
	return v.(*phaseDims)
}
