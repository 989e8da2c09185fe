package obs

import (
	"fmt"
	"sync"
	"time"
)

// Anomaly kinds recognised by the flight recorder. Instrumented layers
// pass one of these to FlightRecorder.Trigger when an invocation crosses
// a failure boundary worth freezing evidence for.
const (
	// AnomalyRetryExhausted marks an invocation that failed at the
	// transport level on its last permitted attempt.
	AnomalyRetryExhausted = "retry-exhausted"
	// AnomalyBreakerOpen marks a circuit breaker opening for an endpoint.
	AnomalyBreakerOpen = "breaker-open"
	// AnomalyDeadlineMiss marks an invocation that blew its deadline
	// budget (context deadline or TIMEOUT exception).
	AnomalyDeadlineMiss = "deadline-miss"
	// AnomalyQoSViolation marks an observation outside the bounds the
	// QoS contract negotiated (see qos.SLOEngine's latency objective).
	AnomalyQoSViolation = "qos-violation"
	// AnomalyDegrade marks the QoS degradation ladder stepping down.
	AnomalyDegrade = "qos-degrade"
	// AnomalyOverloadShed marks sustained server-side admission shedding:
	// a dispatch class dropping requests faster than the shed-storm
	// threshold (see orb's admission control).
	AnomalyOverloadShed = "overload-shed"
	// AnomalySLOBurn marks an SLO error budget burning faster than the
	// critical burn-rate threshold on both the fast and slow windows
	// (see qos.SLOEngine).
	AnomalySLOBurn = "slo-burn"
)

// PhaseTimings decomposes one invocation's latency into pipeline
// phases, so a record (or a burn dump) says where the budget went.
// Client records carry the encode phase; server-side shed and dispatch
// records carry the queue/dispatch/servant/reply phases. Zero fields
// mean the phase wasn't measured, not that it took no time.
type PhaseTimings struct {
	// EncodeNs is client-side request marshal + frame write time.
	EncodeNs int64 `json:"encode_ns,omitempty"`
	// QueueWaitNs is time spent waiting at a bounded class's admission gate.
	QueueWaitNs int64 `json:"queue_wait_ns,omitempty"`
	// DispatchNs is server routing/filter/unmarshal overhead: dispatch
	// wall time minus the servant's own execution.
	DispatchNs int64 `json:"dispatch_ns,omitempty"`
	// ServantNs is the servant method's execution time.
	ServantNs int64 `json:"servant_ns,omitempty"`
	// ReplyWireNs is reply marshal + frame write time.
	ReplyWireNs int64 `json:"reply_wire_ns,omitempty"`
}

// FlightRecord is one completed invocation (or resilience event) as
// retained by the flight recorder: the minimal forensic state needed to
// reconstruct what the resilience and transport layers did to a call.
type FlightRecord struct {
	// Seq is the recorder-wide sequence number (monotonic, 1-based).
	Seq uint64 `json:"seq,omitempty"`
	// TraceID and SpanID link the record to the span collector when
	// tracing is on.
	TraceID string `json:"trace_id,omitempty"`
	SpanID  string `json:"span_id,omitempty"`
	// Operation is the invoked operation ("(breaker)" and "(qos)" mark
	// synthetic records from resilience events rather than calls).
	Operation string `json:"operation"`
	// Binding names the QoS characteristic bound to the call, if any.
	Binding string `json:"binding,omitempty"`
	// Endpoint is the target address; Stripe the connection stripe slot
	// the request used (-1 when unknown, e.g. breaker-rejected).
	Endpoint string `json:"endpoint,omitempty"`
	Stripe   int    `json:"stripe"`
	// Attempts counts delivery attempts admitted for the call (0 when
	// the breaker rejected it outright).
	Attempts int `json:"attempts"`
	// BreakerState is the endpoint's breaker state at admission.
	BreakerState string `json:"breaker_state,omitempty"`
	// DeadlineBudget is the time remaining to the caller's deadline at
	// admission (0 when no deadline applied).
	DeadlineBudget time.Duration `json:"deadline_budget_ns,omitempty"`
	// Outcome labels the result: "ok", a system exception name, or a
	// context verdict ("deadline-exceeded", "canceled").
	Outcome string `json:"outcome"`
	// Anomaly is the anomaly kind the record triggered, if any.
	Anomaly string `json:"anomaly,omitempty"`
	// Latency is the wall time of the whole call including retries.
	Latency time.Duration `json:"latency_ns"`
	// Phases decomposes the latency into pipeline phases when the
	// instrumented layer measured them.
	Phases *PhaseTimings `json:"phases,omitempty"`
	// At is when the record was finalised.
	At time.Time `json:"at"`
}

// FlightDump is one frozen anomaly snapshot: the triggering record plus
// the tail of the ring at trigger time.
type FlightDump struct {
	ID      string         `json:"id"`
	Kind    string         `json:"kind"`
	At      time.Time      `json:"at"`
	Trigger FlightRecord   `json:"trigger"`
	Records []FlightRecord `json:"records"`
}

// FlightDumpSummary lists a retained dump without its records.
type FlightDumpSummary struct {
	ID      string    `json:"id"`
	Kind    string    `json:"kind"`
	At      time.Time `json:"at"`
	Records int       `json:"records"`
}

// FlightSnapshot is the /flight JSON export.
type FlightSnapshot struct {
	// Total counts all records ever made, including overwritten ones.
	Total uint64 `json:"total"`
	// Dumps summarises the retained anomaly dumps, oldest first.
	Dumps []FlightDumpSummary `json:"dumps"`
	// Records is the retained ring tail, oldest first.
	Records []FlightRecord `json:"records"`
}

// Flight recorder defaults.
const (
	defaultFlightCapacity      = 512
	defaultFlightSnapshotDepth = 32
	defaultFlightMaxDumps      = 32
	// defaultDumpCooldown suppresses same-kind dumps following each
	// other closer than this, so an anomaly storm (every call of an
	// outage exhausting its retries) yields a few spaced dumps instead
	// of churning the dump ring.
	defaultDumpCooldown = 100 * time.Millisecond
)

// FlightRecorder is an always-on bounded ring of per-invocation records
// with anomaly-triggered snapshots. Recording is one short mutex hold
// and two struct copies — cheap enough to leave on in production, which
// is the point: when a breaker trips at 3am the evidence is already
// there. A nil *FlightRecorder is the disabled recorder; every method
// is a no-op on it.
type FlightRecorder struct {
	mu        sync.Mutex
	ring      []FlightRecord
	next      int
	filled    bool
	seq       uint64
	snapDepth int
	dumps     []*FlightDump // oldest first, bounded by maxDumps
	maxDumps  int
	dumpSeq   uint64
	cooldown  time.Duration
	lastDump  map[string]time.Time // per anomaly kind

	// hookMu guards hooks separately from mu: hooks run after Trigger
	// releases mu, so a hook may call back into the recorder.
	hookMu sync.Mutex
	hooks  []func(dumpID, kind, traceID string)
}

// onDump registers a hook invoked (outside the recorder's lock, on the
// triggering goroutine) each time an anomaly freezes a new dump. The
// tail sampler uses it to pin the triggering trace; the profiler uses it
// to start an anomaly-triggered capture.
func (f *FlightRecorder) onDump(hook func(dumpID, kind, traceID string)) {
	if f == nil || hook == nil {
		return
	}
	f.hookMu.Lock()
	f.hooks = append(f.hooks, hook)
	f.hookMu.Unlock()
}

// NewFlightRecorder constructs a recorder retaining up to capacity
// records, freezing snapshotDepth records per dump and keeping up to
// maxDumps dumps (non-positive arguments take the defaults).
func NewFlightRecorder(capacity, snapshotDepth, maxDumps int) *FlightRecorder {
	if capacity <= 0 {
		capacity = defaultFlightCapacity
	}
	if snapshotDepth <= 0 {
		snapshotDepth = defaultFlightSnapshotDepth
	}
	if snapshotDepth > capacity {
		snapshotDepth = capacity
	}
	if maxDumps <= 0 {
		maxDumps = defaultFlightMaxDumps
	}
	return &FlightRecorder{
		ring:      make([]FlightRecord, capacity),
		snapDepth: snapshotDepth,
		maxDumps:  maxDumps,
		cooldown:  defaultDumpCooldown,
		lastDump:  make(map[string]time.Time),
	}
}

// SetDumpCooldown bounds how often same-kind anomalies may freeze a new
// dump (0 disables the suppression; tests use that for determinism).
func (f *FlightRecorder) SetDumpCooldown(d time.Duration) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.cooldown = d
	f.mu.Unlock()
}

// Record appends one record to the ring, assigning its sequence number.
func (f *FlightRecorder) Record(r FlightRecord) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.seq++
	r.Seq = f.seq
	f.ring[f.next] = r
	f.next++
	if f.next == len(f.ring) {
		f.next = 0
		f.filled = true
	}
	f.mu.Unlock()
}

// Trigger freezes the last records plus the triggering record into a
// named dump and returns the dump id ("" when suppressed by the
// per-kind cooldown). The trigger record is stamped with the anomaly
// kind; it need not have been Recorded separately.
func (f *FlightRecorder) Trigger(kind string, trigger FlightRecord) string {
	if f == nil {
		return ""
	}
	now := time.Now()
	f.mu.Lock()
	if f.cooldown > 0 {
		if last, ok := f.lastDump[kind]; ok && now.Sub(last) < f.cooldown {
			f.mu.Unlock()
			return ""
		}
	}
	f.lastDump[kind] = now
	f.dumpSeq++
	trigger.Anomaly = kind
	if trigger.At.IsZero() {
		trigger.At = now
	}
	d := &FlightDump{
		ID:      fmt.Sprintf("%s-%d", kind, f.dumpSeq),
		Kind:    kind,
		At:      now,
		Trigger: trigger,
		Records: f.tailLocked(f.snapDepth),
	}
	f.dumps = append(f.dumps, d)
	if len(f.dumps) > f.maxDumps {
		f.evictLocked()
	}
	f.mu.Unlock()
	f.hookMu.Lock()
	hooks := f.hooks
	f.hookMu.Unlock()
	for _, hook := range hooks {
		hook(d.ID, kind, trigger.TraceID)
	}
	return d.ID
}

// evictLocked drops one dump to get back under maxDumps. Eviction is
// kind-aware: the oldest dump of the most numerous kind goes first, so
// a flood of one anomaly (a qos-violation storm, say) cannot wash a
// rare kind's only dump (an slo-burn, a breaker-open) out of the
// retained set.
func (f *FlightRecorder) evictLocked() {
	counts := make(map[string]int, 4)
	for _, d := range f.dumps {
		counts[d.Kind]++
	}
	victim, victimKind := 0, f.dumps[0].Kind
	for i, d := range f.dumps {
		if counts[d.Kind] > counts[victimKind] {
			victim, victimKind = i, d.Kind
		}
	}
	f.dumps = append(f.dumps[:victim], f.dumps[victim+1:]...)
}

// tailLocked copies the newest n retained records, oldest first.
func (f *FlightRecorder) tailLocked(n int) []FlightRecord {
	size := f.next
	if f.filled {
		size = len(f.ring)
	}
	if n > size {
		n = size
	}
	out := make([]FlightRecord, 0, n)
	for i := size - n; i < size; i++ {
		idx := i
		if f.filled {
			idx = (f.next + i) % len(f.ring)
		}
		out = append(out, f.ring[idx])
	}
	return out
}

// Records returns the newest limit retained records, oldest first
// (limit <= 0 returns all retained records).
func (f *FlightRecorder) Records(limit int) []FlightRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	size := f.next
	if f.filled {
		size = len(f.ring)
	}
	if limit <= 0 || limit > size {
		limit = size
	}
	return f.tailLocked(limit)
}

// Dump retrieves one retained dump by id.
func (f *FlightRecorder) Dump(id string) (*FlightDump, bool) {
	if f == nil {
		return nil, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, d := range f.dumps {
		if d.ID == id {
			cp := *d
			cp.Records = append([]FlightRecord(nil), d.Records...)
			return &cp, true
		}
	}
	return nil, false
}

// Dumps summarises the retained dumps, oldest first.
func (f *FlightRecorder) Dumps() []FlightDumpSummary {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FlightDumpSummary, 0, len(f.dumps))
	for _, d := range f.dumps {
		out = append(out, FlightDumpSummary{ID: d.ID, Kind: d.Kind, At: d.At, Records: len(d.Records)})
	}
	return out
}

// TotalRecorded counts all records ever made, including overwritten.
func (f *FlightRecorder) TotalRecorded() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seq
}

// Snapshot exports the recorder state for the /flight endpoint; limit
// bounds the record tail (<= 0 returns every retained record).
func (f *FlightRecorder) Snapshot(limit int) FlightSnapshot {
	if f == nil {
		return FlightSnapshot{Dumps: []FlightDumpSummary{}, Records: []FlightRecord{}}
	}
	s := FlightSnapshot{
		Total:   f.TotalRecorded(),
		Dumps:   f.Dumps(),
		Records: f.Records(limit),
	}
	if s.Dumps == nil {
		s.Dumps = []FlightDumpSummary{}
	}
	if s.Records == nil {
		s.Records = []FlightRecord{}
	}
	return s
}
