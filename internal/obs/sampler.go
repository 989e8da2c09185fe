package obs

import (
	"math/rand/v2"
	"strings"
	"sync"
	"time"
)

// Tail-sampling keep/drop reasons, the {reason} label on
// maqs_trace_kept_total and maqs_trace_dropped_total.
const (
	// KeepError marks a trace kept because a span recorded an error.
	KeepError = "error"
	// KeepRetry marks a trace kept because a span retried delivery.
	KeepRetry = "retry"
	// KeepShed marks a trace kept because admission control shed it.
	KeepShed = "shed"
	// KeepDeadline marks a trace kept because it blew a deadline budget.
	KeepDeadline = "deadline"
	// KeepSlow marks a trace kept because its root latency exceeded the
	// class's SLO-derived slow threshold.
	KeepSlow = "slow"
	// KeepAnomaly marks a trace kept because a flight-dump anomaly
	// touched it (markAnomaly, fed by the flight recorder's triggers).
	KeepAnomaly = "anomaly"
	// ReasonHealthy labels the probabilistic verdict on traces with
	// nothing wrong: kept with HealthyKeepFraction, dropped otherwise.
	ReasonHealthy = "healthy"
	// DropEvicted labels traces forced out of the pending table before
	// their root ended (table overflow).
	DropEvicted = "evicted"
	// dropOrphan labels spans arriving for a trace the sampler has no
	// pending entry or recent decision for (e.g. a server-returned
	// summary landing after the decision window aged out).
	dropOrphan = "orphan"
)

// Tail-sampler bounds.
const (
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
	// SlowThreshold is the root-latency bound classifying a trace as
	// SLO-relevant slow when no per-class threshold has been installed
	// (SetSlowThreshold). 0 disables the default slowness check.
	SlowThreshold time.Duration
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
	// dropped counts spans discarded over maxSpansPerTrace.
	dropped int
}

// TailSampler buffers finished spans per trace until the trace's root
// span ends, then applies the keep/drop policy: traces with errors,
// retries, sheds, deadline misses, SLO-relevant slowness or a marked
// anomaly are always kept; healthy traces are kept with a configurable
// probability. Kept traces flush to the Collector; dropped traces never
// reach it — which is what keeps the bounded span ring useful at load
// (the interesting traces no longer evict first). A nil *TailSampler is
// disabled; every method no-ops.
type TailSampler struct {
	collector *Collector

	mu      sync.Mutex
	pending map[string]*pendingTrace
	// evictQueue holds trace IDs in insertion order; eviction pops from
	// the front, skipping IDs already decided, and the queue compacts
	// lazily so it stays proportional to the pending table.
	evictQueue []string
	// recent maps recently decided trace IDs to their verdict so late
	// spans follow it; recentOrder ages the map FIFO.
	recent      map[string]bool
	recentOrder []string
	// anomalies holds anomaly-marked trace IDs with no pending entry yet.
	anomalies      map[string]struct{}
	anomaliesOrder []string

	healthyKeep float64
	// maxPending and maxSpans are maxPendingTraces and maxSpansPerTrace;
	// tests shrink them.
	maxPending int
	maxSpans   int

	slowMu      sync.RWMutex
	slow        map[string]time.Duration // QoS class -> slow threshold
	defaultSlow time.Duration

	kept, droppedC map[string]*Counter
	pendingGauge   *Gauge
	evictions      *Counter
	spanOverflow   *Counter
}

// newTailSampler constructs a sampler flushing kept traces into c and
// publishing its counters into reg (either may be nil: nil c discards
// kept traces, nil reg skips metrics).
func newTailSampler(c *Collector, reg *Registry, cfg TailSamplingConfig) *TailSampler {
	s := &TailSampler{
		collector:   c,
		pending:     make(map[string]*pendingTrace),
		recent:      make(map[string]bool),
		anomalies:   make(map[string]struct{}),
		healthyKeep: cfg.HealthyKeepFraction,
		maxPending:  maxPendingTraces,
		maxSpans:    maxSpansPerTrace,
		slow:        make(map[string]time.Duration),
		defaultSlow: cfg.SlowThreshold,
		kept:        make(map[string]*Counter),
		droppedC:    make(map[string]*Counter),
	}
	for _, reason := range []string{KeepError, KeepRetry, KeepShed, KeepDeadline, KeepSlow, KeepAnomaly, ReasonHealthy} {
		s.kept[reason] = reg.Counter(`maqs_trace_kept_total{reason="` + reason + `"}`)
	}
	for _, reason := range []string{ReasonHealthy, DropEvicted, dropOrphan} {
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

// slowFor resolves the slow bound for a class ("" falls back to the
// configured default; 0 disables the check).
func (s *TailSampler) slowFor(class string) time.Duration {
	s.slowMu.RLock()
	d, ok := s.slow[class]
	s.slowMu.RUnlock()
	if !ok {
		return s.defaultSlow
	}
	return d
}

// markAnomaly flags a trace as touched by a flight-dump anomaly: it will
// be kept regardless of its spans' contents. Traces without a pending
// entry yet are remembered in a bounded set. No-op on empty IDs.
func (s *TailSampler) markAnomaly(traceID string) {
	if s == nil || traceID == "" {
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
func (s *TailSampler) spanStarted(traceID string) {
	if s == nil {
		return
	}
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

// evictOneLocked drops the oldest pending trace, flushing nothing and
// counting it as dropped{reason="evicted"}. Reports false when no
// pending entry could be found to evict.
func (s *TailSampler) evictOneLocked() bool {
	for len(s.evictQueue) > 0 {
		id := s.evictQueue[0]
		s.evictQueue = s.evictQueue[1:]
		if _, ok := s.pending[id]; !ok {
			continue
		}
		delete(s.pending, id)
		s.rememberLocked(id, false)
		s.evictions.Inc()
		s.droppedC[DropEvicted].Inc()
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
func (s *TailSampler) rememberLocked(traceID string, keep bool) {
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
	if s == nil {
		return
	}
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
		spans, anomaly, overflow := e.spans, e.anomaly, e.dropped
		reason, keep := s.classify(spans, anomaly)
		s.rememberLocked(rec.TraceID, keep)
		s.pendingGauge.Set(int64(len(s.pending)))
		s.mu.Unlock()
		s.verdict(spans, reason, keep, overflow)
		return
	}
	s.mu.Unlock()
}

// inject receives a span that finished in another process (a
// server-returned summary): it buffers into the pending trace without
// touching the open-span count, or follows the trace's remembered
// verdict when the decision already happened.
func (s *TailSampler) inject(rec SpanRecord) {
	if s == nil {
		return
	}
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

// bufferLocked appends one span under the per-trace cap.
func (s *TailSampler) bufferLocked(e *pendingTrace, rec SpanRecord) {
	if len(e.spans) >= s.maxSpans {
		e.dropped++
		s.spanOverflow.Inc()
		return
	}
	e.spans = append(e.spans, rec)
}

// lateSpan routes a span whose trace already has (or lost) its verdict.
func (s *TailSampler) lateSpan(rec SpanRecord, keep, known bool) {
	switch {
	case known && keep:
		s.collector.record(rec)
	case known:
		// Dropped trace: its late spans follow silently (the drop was
		// already counted once, at decision time).
	default:
		s.droppedC[dropOrphan].Inc()
	}
}

// verdict publishes one decided trace: flush to the collector when kept,
// count either way.
func (s *TailSampler) verdict(spans []SpanRecord, reason string, keep bool, overflow int) {
	if keep {
		for _, rec := range spans {
			s.collector.record(rec)
		}
		if c, ok := s.kept[reason]; ok {
			c.Inc()
		}
		return
	}
	if c, ok := s.droppedC[reason]; ok {
		c.Inc()
	}
	_ = overflow
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
				return KeepShed, true
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
		if (rec.ParentID == "" || rec.RemoteParent) && rec.Duration > rootDur {
			rootDur = rec.Duration
		}
	}
	if reason == KeepError {
		return KeepError, true
	}
	if retried {
		return KeepRetry, true
	}
	if anomaly {
		return KeepAnomaly, true
	}
	if bound := s.slowFor(class); bound > 0 && rootDur > bound {
		slow = true
	}
	if slow {
		return KeepSlow, true
	}
	if s.healthyKeep > 0 && rand.Float64() < s.healthyKeep {
		return ReasonHealthy, true
	}
	return ReasonHealthy, false
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
