package obs

import (
	"encoding/json"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"
	"time"
)

// Tail-sampling keep/drop reasons, the {reason} label on
// maqs_trace_kept_total and maqs_trace_dropped_total.
const (
	// KeepError marks a trace kept because a span recorded an error.
	KeepError = "error"
	// keepRetry marks a trace kept because a span retried delivery.
	keepRetry = "retry"
	// keepShed marks a trace kept because admission control shed it.
	keepShed = "shed"
	// KeepDeadline marks a trace kept because it blew a deadline budget.
	KeepDeadline = "deadline"
	// keepSlow marks a trace kept because its root latency exceeded the
	// class's SLO-derived slow threshold.
	keepSlow = "slow"
	// keepAnomaly marks a trace kept because a flight-dump anomaly
	// touched it (markAnomaly, fed by the flight recorder's triggers).
	keepAnomaly = "anomaly"
	// reasonHealthy labels the probabilistic verdict on traces with
	// nothing wrong: kept with HealthyKeepFraction, dropped otherwise.
	reasonHealthy = "healthy"
	// dropEvicted labels traces forced out of the pending table before
	// their root ended (table overflow), unless every trace is kept.
	dropEvicted = "evicted"
	// dropOrphan labels spans arriving for a trace the sampler has no
	// pending entry or recent decision for (e.g. a server-returned
	// summary landing after the decision window aged out), unless every
	// trace is kept.
	dropOrphan = "orphan"
)

// Tail-sampler bounds.
const (
	// defaultSpanCapacity bounds the kept-span ring when Config gives a
	// non-positive SpanCapacity.
	defaultSpanCapacity = 2048
	// maxPendingTraces bounds the pending table.
	maxPendingTraces = 512
	// maxSpansPerTrace bounds per-trace buffering; spans beyond it are
	// dropped (counted) so one pathological trace cannot hog memory.
	maxSpansPerTrace = 64
	// recentDecisions bounds the ring of recently decided traces that
	// routes late spans (async futures resolving after the root ended,
	// server-returned summaries) to the verdict their trace received.
	recentDecisions = 512
	// recentAnomalies bounds the set of anomaly-marked trace IDs kept for
	// traces that have no pending entry yet at trigger time.
	recentAnomalies = 256
)

// TailSamplingConfig parameterises a TailSampler.
type TailSamplingConfig struct {
	// HealthyKeepFraction is the probability a trace with nothing wrong
	// is kept (0 drops all healthy traces, 1 keeps everything).
	HealthyKeepFraction float64
}

// SpanRecord is one finished span as the sampler buffers and keeps it
// and the /trace endpoint renders it.
type SpanRecord struct {
	TraceID      TraceID       `json:"trace_id"`
	SpanID       SpanID        `json:"span_id"`
	ParentID     SpanID        `json:"parent_id"` // zero for a local root; omitted from JSON then
	RemoteParent bool          `json:"remote_parent,omitempty"`
	Name         string        `json:"name"`
	Operation    string        `json:"operation,omitempty"`
	Start        time.Time     `json:"start"`
	Duration     time.Duration `json:"duration_ns"`
	Err          string        `json:"error,omitempty"`
	Attrs        []Attr        `json:"attrs,omitempty"`
	Events       []Event       `json:"events,omitempty"`
}

// MarshalJSON writes the record with a root's zero parent left out.
func (r SpanRecord) MarshalJSON() ([]byte, error) {
	type fields SpanRecord
	return json.Marshal(struct {
		TraceID  TraceID `json:"trace_id"`
		SpanID   SpanID  `json:"span_id"`
		ParentID *SpanID `json:"parent_id,omitempty"`
		fields
	}{r.TraceID, r.SpanID, orNil(r.ParentID), fields(r)})
}

// OpStats aggregates the spans of one stage/operation pair, keyed on
// /trace/ops by the stage name, qualified by ":operation" when the spans
// carry one.
type OpStats struct {
	Count  uint64        `json:"count"`
	Errors uint64        `json:"errors"`
	Total  time.Duration `json:"total_ns"`
	Min    time.Duration `json:"min_ns"`
	Max    time.Duration `json:"max_ns"`
}

// pendingTrace buffers one trace's finished spans until its root ends.
type pendingTrace struct {
	spans []SpanRecord
	// open counts spans started but not yet ended; the keep/drop decision
	// waits until the trace quiesces locally, so a shared client+server
	// bundle decides once per trace, not once per process role.
	open int
	// sawRoot records that a decision-point span (a local root, or a
	// remote-parented server root) has ended.
	sawRoot bool
	// anomaly marks the trace as touched by a flight-dump trigger.
	anomaly bool
}

// TailSampler is the one way from a finished span to /trace. It buffers
// finished spans per trace until the trace's root span ends, then applies
// the keep/drop policy: traces with errors, retries, sheds, deadline
// misses, SLO-relevant slowness or a marked anomaly are always kept;
// healthy traces are kept with a configurable probability. Kept traces go
// to a bounded ring (oldest spans are overwritten) and to a per-operation
// aggregation that survives its wrap-around; dropped traces never reach
// either — which is what keeps the ring useful at load (the interesting
// traces no longer evict first). Keeping every healthy trace is the
// record-everything policy: then evicted traces, spans over the per-trace
// cap and orphan spans are kept as well.
type TailSampler struct {
	mu      sync.Mutex
	pending map[TraceID]*pendingTrace
	// evictQueue holds trace IDs in insertion order; eviction pops from
	// the front, skipping IDs already decided, and the queue compacts
	// lazily so it stays proportional to the pending table.
	evictQueue []TraceID
	// recent maps recently decided trace IDs to their verdict so late
	// spans follow it; recentOrder ages the map FIFO.
	recent      map[TraceID]bool
	recentOrder []TraceID
	// anomalies holds anomaly-marked trace IDs with no pending entry yet.
	anomalies      map[TraceID]struct{}
	anomaliesOrder []TraceID

	healthyKeep float64
	// keepAll is healthyKeep ≥ 1: no trace is ever dropped.
	keepAll bool
	// maxPending and maxSpans are maxPendingTraces and maxSpansPerTrace;
	// tests shrink them.
	maxPending int
	maxSpans   int

	slowMu sync.RWMutex
	slow   map[string]time.Duration // QoS class -> slow threshold

	kept, droppedC map[string]*Counter
	pendingGauge   *Gauge
	evictions      *Counter
	spanOverflow   *Counter

	// ringMu guards the kept spans: ring, next, filled and ops.
	ringMu sync.Mutex
	ring   []SpanRecord
	next   int
	filled bool
	// ops holds the aggregation as registry cells: a "span" histogram per
	// (span, op) label pair and, named by the /trace/ops key, an error
	// counter. Its own registry, so /metrics stays the bundle's.
	ops *Registry
}

// newTailSampler constructs a sampler keeping up to capacity spans
// (defaultSpanCapacity when non-positive) and publishing its counters
// into reg (nil reg skips metrics).
func newTailSampler(capacity int, reg *Registry, cfg TailSamplingConfig) *TailSampler {
	if capacity <= 0 {
		capacity = defaultSpanCapacity
	}
	s := &TailSampler{
		pending:     make(map[TraceID]*pendingTrace),
		recent:      make(map[TraceID]bool),
		anomalies:   make(map[TraceID]struct{}),
		healthyKeep: cfg.HealthyKeepFraction,
		keepAll:     cfg.HealthyKeepFraction >= 1,
		maxPending:  maxPendingTraces,
		maxSpans:    maxSpansPerTrace,
		slow:        make(map[string]time.Duration),
		kept:        make(map[string]*Counter),
		droppedC:    make(map[string]*Counter),
		ring:        make([]SpanRecord, capacity),
		ops:         NewRegistry(),
	}
	for _, reason := range []string{KeepError, keepRetry, keepShed, KeepDeadline, keepSlow, keepAnomaly, reasonHealthy} {
		s.kept[reason] = reg.Counter(`maqs_trace_kept_total{reason="` + reason + `"}`)
	}
	for _, reason := range []string{reasonHealthy, dropEvicted, dropOrphan} {
		s.droppedC[reason] = reg.Counter(`maqs_trace_dropped_total{reason="` + reason + `"}`)
	}
	s.pendingGauge = reg.Gauge("maqs_trace_pending")
	s.evictions = reg.Counter("maqs_trace_pending_evicted_total")
	s.spanOverflow = reg.Counter("maqs_trace_buffered_spans_dropped_total")
	return s
}

// SetSlowThreshold installs the per-class root-latency bound above which
// a trace counts as SLO-relevant slow. The SLO engine wires negotiated
// contracts' latency objectives (max_rtt_ms) through here.
func (s *TailSampler) SetSlowThreshold(class string, d time.Duration) {
	if s == nil {
		return
	}
	s.slowMu.Lock()
	s.slow[class] = d
	s.slowMu.Unlock()
}

// slowFor resolves the slow bound for a class (0, the check disabled,
// for a class without one).
func (s *TailSampler) slowFor(class string) time.Duration {
	s.slowMu.RLock()
	defer s.slowMu.RUnlock()
	return s.slow[class]
}

// markAnomaly flags a trace as touched by a flight-dump anomaly: it will
// be kept regardless of its spans' contents. Traces without a pending
// entry yet are remembered in a bounded set. No-op on a zero ID.
func (s *TailSampler) markAnomaly(traceID TraceID) {
	if traceID.IsZero() {
		return
	}
	s.mu.Lock()
	if e, ok := s.pending[traceID]; ok {
		e.anomaly = true
		s.mu.Unlock()
		return
	}
	if _, ok := s.anomalies[traceID]; !ok {
		s.anomalies[traceID] = struct{}{}
		s.anomaliesOrder = append(s.anomaliesOrder, traceID)
		if len(s.anomaliesOrder) > recentAnomalies {
			delete(s.anomalies, s.anomaliesOrder[0])
			s.anomaliesOrder = s.anomaliesOrder[1:]
		}
	}
	s.mu.Unlock()
}

// spanStarted registers a live span with its trace's pending entry
// (creating it, evicting the oldest entry when the table is full).
// Called from Tracer.newSpan.
func (s *TailSampler) spanStarted(traceID TraceID) {
	s.mu.Lock()
	e, ok := s.pending[traceID]
	if !ok {
		e = &pendingTrace{}
		if _, marked := s.anomalies[traceID]; marked {
			delete(s.anomalies, traceID)
			e.anomaly = true
		}
		for len(s.pending) >= s.maxPending {
			if !s.evictOneLocked() {
				break
			}
		}
		s.pending[traceID] = e
		s.evictQueue = append(s.evictQueue, traceID)
		s.compactQueueLocked()
		s.pendingGauge.Set(int64(len(s.pending)))
	}
	e.open++
	s.mu.Unlock()
}

// evictOneLocked forces the oldest pending trace out of the table. It
// is dropped and counted as dropped{reason="evicted"}, unless every trace
// is kept: then its buffered spans are kept now and its later spans
// follow. Reports false when no pending entry could be found to evict.
func (s *TailSampler) evictOneLocked() bool {
	for len(s.evictQueue) > 0 {
		id := s.evictQueue[0]
		s.evictQueue = s.evictQueue[1:]
		e, ok := s.pending[id]
		if !ok {
			continue
		}
		delete(s.pending, id)
		s.rememberLocked(id, s.keepAll)
		s.evictions.Inc()
		if s.keepAll {
			s.keep(e.spans...)
		} else {
			s.droppedC[dropEvicted].Inc()
		}
		s.pendingGauge.Set(int64(len(s.pending)))
		return true
	}
	return false
}

// compactQueueLocked rebuilds the eviction queue when stale (already
// decided) IDs dominate it, keeping it proportional to the table.
func (s *TailSampler) compactQueueLocked() {
	if len(s.evictQueue) <= 2*s.maxPending+16 {
		return
	}
	kept := s.evictQueue[:0]
	for _, id := range s.evictQueue {
		if _, ok := s.pending[id]; ok {
			kept = append(kept, id)
		}
	}
	s.evictQueue = kept
}

// rememberLocked records a trace's verdict for late spans.
func (s *TailSampler) rememberLocked(traceID TraceID, keep bool) {
	if _, ok := s.recent[traceID]; !ok {
		s.recentOrder = append(s.recentOrder, traceID)
		if len(s.recentOrder) > recentDecisions {
			delete(s.recent, s.recentOrder[0])
			s.recentOrder = s.recentOrder[1:]
		}
	}
	s.recent[traceID] = keep
}

// offer receives one locally finished span (from Span.End). root marks a
// decision-point span: a local trace root, or a remote-parented server
// root whose end closes this process's part of the trace.
func (s *TailSampler) offer(rec SpanRecord, root bool) {
	s.mu.Lock()
	e, ok := s.pending[rec.TraceID]
	if !ok {
		// The pending entry was evicted (or decided) under this span: the
		// verdict, if remembered, still applies.
		keep, known := s.recent[rec.TraceID]
		s.mu.Unlock()
		s.lateSpan(rec, keep, known)
		return
	}
	s.bufferLocked(e, rec)
	if root {
		e.sawRoot = true
	}
	if e.open--; e.open <= 0 && e.sawRoot {
		delete(s.pending, rec.TraceID)
		reason, keep := s.classify(e.spans, e.anomaly)
		s.rememberLocked(rec.TraceID, keep)
		s.pendingGauge.Set(int64(len(s.pending)))
		s.mu.Unlock()
		s.verdict(e.spans, reason, keep)
		return
	}
	s.mu.Unlock()
}

// inject receives a span that finished in another process (a
// server-returned summary): it buffers into the pending trace without
// touching the open-span count, or follows the trace's remembered
// verdict when the decision already happened.
func (s *TailSampler) inject(rec SpanRecord) {
	s.mu.Lock()
	if e, ok := s.pending[rec.TraceID]; ok {
		s.bufferLocked(e, rec)
		s.mu.Unlock()
		return
	}
	keep, known := s.recent[rec.TraceID]
	s.mu.Unlock()
	s.lateSpan(rec, keep, known)
}

// bufferLocked appends one span under the per-trace cap. A span over
// the cap is counted and dropped, or kept at once when every trace is.
func (s *TailSampler) bufferLocked(e *pendingTrace, rec SpanRecord) {
	if len(e.spans) < s.maxSpans {
		e.spans = append(e.spans, rec)
		return
	}
	if s.keepAll {
		s.keep(rec)
		return
	}
	s.spanOverflow.Inc()
}

// lateSpan routes a span whose trace already has (or lost) its verdict.
func (s *TailSampler) lateSpan(rec SpanRecord, keep, known bool) {
	switch {
	case known && keep, !known && s.keepAll:
		s.keep(rec)
	case known:
		// Dropped trace: its late spans follow silently (the drop was
		// already counted once, at decision time).
	default:
		s.droppedC[dropOrphan].Inc()
	}
}

// verdict publishes one decided trace: kept spans go to the ring, and
// the verdict is counted either way.
func (s *TailSampler) verdict(spans []SpanRecord, reason string, keep bool) {
	if keep {
		s.keep(spans...)
		if c, ok := s.kept[reason]; ok {
			c.Inc()
		}
		return
	}
	if c, ok := s.droppedC[reason]; ok {
		c.Inc()
	}
}

// keep stores kept spans in the ring and aggregates them per operation.
func (s *TailSampler) keep(spans ...SpanRecord) {
	s.ringMu.Lock()
	defer s.ringMu.Unlock()
	for _, r := range spans {
		s.ring[s.next] = r
		if s.next++; s.next == len(s.ring) {
			s.next, s.filled = 0, true
		}
		s.ops.Histogram("span", nil, "span", r.Name, "op", r.Operation).Observe(r.Duration)
		if r.Err != "" {
			s.ops.Counter(opsKey(r.Name, r.Operation)).Inc()
		}
	}
}

func opsKey(span, op string) string {
	if op == "" {
		return span
	}
	return span + ":" + op
}

// spans returns the kept spans, oldest first.
func (s *TailSampler) spans() []SpanRecord {
	s.ringMu.Lock()
	defer s.ringMu.Unlock()
	if !s.filled {
		return append([]SpanRecord(nil), s.ring[:s.next]...)
	}
	out := make([]SpanRecord, 0, len(s.ring))
	out = append(out, s.ring[s.next:]...)
	return append(out, s.ring[:s.next]...)
}

// spansOf returns the kept spans of the trace whose ID hexID renders,
// ordered by start time; an ID that is not 32 lowercase hex digits
// matches nothing.
func (s *TailSampler) spansOf(hexID string) []SpanRecord {
	var id TraceID
	ok := id.UnmarshalText([]byte(hexID)) == nil
	spans := s.spans()
	out := spans[:0]
	for _, r := range spans {
		if ok && r.TraceID == id {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// operations derives the per-operation aggregation from the cells.
func (s *TailSampler) operations() map[string]OpStats {
	out := make(map[string]OpStats)
	s.ringMu.Lock()
	defer s.ringMu.Unlock()
	s.ops.histograms.Range(func(k, e any) bool {
		key, h := opsKey(k.(histKey).labels[1], k.(histKey).labels[3]), e.(*histEntry).h
		lo, hi := h.extremes()
		out[key] = OpStats{Count: h.observations(), Errors: s.ops.Counter(key).Value(),
			Total: time.Duration(h.sum.Load()), Min: time.Duration(lo), Max: time.Duration(hi)}
		return true
	})
	return out
}

// classify scans a quiesced trace's spans and names the keep reason, or
// decides the healthy trace probabilistically.
func (s *TailSampler) classify(spans []SpanRecord, anomaly bool) (reason string, keep bool) {
	var retried, slow bool
	class := ""
	var rootDur time.Duration
	for i := range spans {
		rec := &spans[i]
		if rec.Err != "" {
			switch {
			case strings.Contains(rec.Err, "shed by admission control"):
				return keepShed, true
			case strings.Contains(rec.Err, "timed out") || strings.Contains(rec.Err, "deadline"):
				return KeepDeadline, true
			}
			// Generic errors keep scanning: a shed/deadline span later in
			// the trace names the keep reason more precisely.
			reason = KeepError
		}
		for _, ev := range rec.Events {
			if ev.Name == "retry.attempt" {
				retried = true
			}
		}
		if class == "" {
			for _, a := range rec.Attrs {
				if a.Key == "characteristic" {
					class = a.Value
					break
				}
			}
		}
		if (rec.ParentID.IsZero() || rec.RemoteParent) && rec.Duration > rootDur {
			rootDur = rec.Duration
		}
	}
	if reason == KeepError {
		return KeepError, true
	}
	if retried {
		return keepRetry, true
	}
	if anomaly {
		return keepAnomaly, true
	}
	if bound := s.slowFor(class); bound > 0 && rootDur > bound {
		slow = true
	}
	if slow {
		return keepSlow, true
	}
	if s.healthyKeep > 0 && rand.Float64() < s.healthyKeep {
		return reasonHealthy, true
	}
	return reasonHealthy, false
}

// PendingCount reports the pending table's occupancy.
func (s *TailSampler) PendingCount() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}
