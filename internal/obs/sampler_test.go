package obs

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"
)

// sampledBundle builds the registry, tracer and sampler NewWithConfig
// wires, for tail-sampling tests; its ring keeps capacity spans
// (defaultSpanCapacity when 0).
func sampledBundle(t *testing.T, cfg TailSamplingConfig, capacity int) (*Registry, *Tracer, *TailSampler) {
	t.Helper()
	reg := NewRegistry()
	s := newTailSampler(capacity, reg, cfg)
	return reg, &Tracer{sampler: s}, s
}

// keepEvery is the policy NewWithConfig installs when TailSampling is nil.
var keepEvery = TailSamplingConfig{HealthyKeepFraction: 1}

func counterValue(reg *Registry, name string) uint64 { return reg.Counter(name).Value() }

// kept counts the spans in the sampler's ring.
func kept(s *TailSampler) int { return len(s.spans()) }

func TestTailSamplerDropsHealthyAtZeroFraction(t *testing.T) {
	reg, tr, s := sampledBundle(t, TailSamplingConfig{HealthyKeepFraction: 0}, 0)
	_, root := tr.StartSpan(context.Background(), "client.call")
	child := root.Child("wire.send")
	child.End()
	root.End()
	if got := kept(s); got != 0 {
		t.Fatalf("healthy trace kept: %d spans", got)
	}
	if got := counterValue(reg, `maqs_trace_dropped_total{reason="healthy"}`); got != 1 {
		t.Fatalf("dropped{healthy} = %d, want 1", got)
	}
	if got := s.PendingCount(); got != 0 {
		t.Fatalf("pending table leaked %d entries", got)
	}
}

func TestTailSamplerKeepsHealthyAtFullFraction(t *testing.T) {
	reg, tr, s := sampledBundle(t, TailSamplingConfig{HealthyKeepFraction: 1}, 0)
	_, root := tr.StartSpan(context.Background(), "client.call")
	root.End()
	if got := kept(s); got != 1 {
		t.Fatalf("kept trace recorded %d spans, want 1", got)
	}
	if got := counterValue(reg, `maqs_trace_kept_total{reason="healthy"}`); got != 1 {
		t.Fatalf("kept{healthy} = %d, want 1", got)
	}
}

func TestTailSamplerClassification(t *testing.T) {
	cases := []struct {
		name   string
		err    error
		event  string
		reason string
	}{
		{"error", errors.New("BAD_OPERATION"), "", KeepError},
		{"shed", errors.New("request shed by admission control (queue full, class bulk)"), "", keepShed},
		{"deadline", errors.New("invocation of echo timed out"), "", KeepDeadline},
		{"retry", nil, "retry.attempt", keepRetry},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg, tr, s := sampledBundle(t, TailSamplingConfig{}, 0)
			_, root := tr.StartSpan(context.Background(), "client.call")
			child := root.Child("wire.send")
			child.RecordError(tc.err)
			if tc.event != "" {
				child.AddEvent(tc.event)
			}
			child.End()
			root.End()
			name := fmt.Sprintf("maqs_trace_kept_total{reason=%q}", tc.reason)
			if got := counterValue(reg, name); got != 1 {
				t.Fatalf("kept{%s} = %d, want 1", tc.reason, got)
			}
			if got := kept(s); got != 2 {
				t.Fatalf("kept trace recorded %d spans, want 2", got)
			}
		})
	}
}

func TestTailSamplerSlowThresholdPerClass(t *testing.T) {
	reg, tr, s := sampledBundle(t, TailSamplingConfig{}, 0)
	s.SetSlowThreshold("bulk", time.Nanosecond)
	_, root := tr.StartSpan(context.Background(), "client.call")
	root.SetAttr("characteristic", "bulk")
	time.Sleep(time.Millisecond)
	root.End()
	if got := counterValue(reg, `maqs_trace_kept_total{reason="slow"}`); got != 1 {
		t.Fatalf("kept{slow} = %d, want 1", got)
	}
	if got := kept(s); got != 1 {
		t.Fatalf("slow trace recorded %d spans, want 1", got)
	}
	// A class without a threshold stays on the (disabled) default.
	_, other := tr.StartSpan(context.Background(), "client.call")
	other.SetAttr("characteristic", "other")
	time.Sleep(time.Millisecond)
	other.End()
	if got := counterValue(reg, `maqs_trace_kept_total{reason="slow"}`); got != 1 {
		t.Fatalf("unrelated class classified slow (kept{slow} = %d)", got)
	}
}

func TestTailSamplerDefaultSlowThreshold(t *testing.T) {
	reg, tr, s := sampledBundle(t, TailSamplingConfig{}, 0)
	// Unbound calls carry no characteristic: their class is "".
	s.SetSlowThreshold("", time.Nanosecond)
	_, root := tr.StartSpan(context.Background(), "client.call")
	time.Sleep(time.Millisecond)
	root.End()
	if got := counterValue(reg, `maqs_trace_kept_total{reason="slow"}`); got != 1 {
		t.Fatalf("kept{slow} = %d, want 1", got)
	}
}

func TestTailSamplerAnomalyPinsTrace(t *testing.T) {
	reg, tr, s := sampledBundle(t, TailSamplingConfig{}, 0)
	_, root := tr.StartSpan(context.Background(), "client.call")
	s.markAnomaly(root.Context().TraceID)
	root.End()
	if got := counterValue(reg, `maqs_trace_kept_total{reason="anomaly"}`); got != 1 {
		t.Fatalf("kept{anomaly} = %d, want 1", got)
	}
	if got := kept(s); got != 1 {
		t.Fatalf("anomaly trace recorded %d spans, want 1", got)
	}
}

func TestTailSamplerAnomalyBeforeFirstSpan(t *testing.T) {
	reg, tr, s := sampledBundle(t, TailSamplingConfig{}, 0)
	trace := newTraceID()
	s.markAnomaly(trace)
	root := tr.StartRemote(SpanContext{}, "server.dispatch")
	// The fresh trace the remote start mints is unrelated; mark the real
	// one by constructing a span in that trace via StartRemote's parent.
	root.End()
	parent := SpanContext{TraceID: trace, SpanID: newSpanID(), Sampled: true}
	sp := tr.StartRemote(parent, "server.dispatch")
	sp.End()
	if got := counterValue(reg, `maqs_trace_kept_total{reason="anomaly"}`); got != 1 {
		t.Fatalf("kept{anomaly} = %d, want 1", got)
	}
}

// TestFlightDumpPinsTrace drives the bundle's own wiring: a dump frozen by
// the flight recorder keeps its healthy-looking trace at a 0 keep
// fraction, and a trace no dump names is dropped.
func TestFlightDumpPinsTrace(t *testing.T) {
	o := NewWithConfig(Config{TailSampling: &TailSamplingConfig{HealthyKeepFraction: 0}})
	_, pinned := o.Tracer.StartSpan(context.Background(), "client.call")
	_, other := o.Tracer.StartSpan(context.Background(), "client.call")
	if id := o.Flight.Trigger(AnomalyBreakerOpen, FlightRecord{TraceID: pinned.Context().TraceID}); id == "" {
		t.Fatal("first dump suppressed")
	}
	pinned.End()
	other.End()
	if got := counterValue(o.Registry, `maqs_trace_kept_total{reason="anomaly"}`); got != 1 {
		t.Fatalf("kept{anomaly} = %d, want 1", got)
	}
	spans := o.Sampler.spans()
	if len(spans) != 1 || spans[0].TraceID != pinned.Context().TraceID {
		t.Fatalf("kept spans %+v, want only the dumped trace's", spans)
	}
}

func TestTailSamplerEvictsOldestPending(t *testing.T) {
	reg, tr, s := sampledBundle(t, TailSamplingConfig{}, 0)
	s.maxPending = 2
	_, a := tr.StartSpan(context.Background(), "a")
	_, b := tr.StartSpan(context.Background(), "b")
	_, c3 := tr.StartSpan(context.Background(), "c")
	if got := s.PendingCount(); got != 2 {
		t.Fatalf("pending = %d, want 2 after eviction", got)
	}
	if got := counterValue(reg, `maqs_trace_dropped_total{reason="evicted"}`); got != 1 {
		t.Fatalf("dropped{evicted} = %d, want 1", got)
	}
	if got := counterValue(reg, "maqs_trace_pending_evicted_total"); got != 1 {
		t.Fatalf("evicted_total = %d, want 1", got)
	}
	a.End()
	b.End()
	c3.End()
	if got := s.PendingCount(); got != 0 {
		t.Fatalf("pending table leaked %d entries", got)
	}
}

func TestTailSamplerLateSpanFollowsVerdict(t *testing.T) {
	_, tr, s := sampledBundle(t, TailSamplingConfig{}, 0)
	_, root := tr.StartSpan(context.Background(), "client.call")
	late := root.Child("late")
	root.RecordError(errors.New("boom"))
	root.End()
	// The trace has not quiesced (late is open), so nothing decided yet.
	if got := kept(s); got != 0 {
		t.Fatalf("undecided trace already recorded %d spans", got)
	}
	late.End()
	if got := kept(s); got != 2 {
		t.Fatalf("decided trace recorded %d spans, want 2", got)
	}
	// A post-decision straggler in the kept trace records directly.
	tr.Inject(SpanRecord{TraceID: root.Context().TraceID, SpanID: newSpanID(), Name: "straggler"})
	if got := kept(s); got != 3 {
		t.Fatalf("late injected span not recorded (total %d)", got)
	}
}

func TestTailSamplerInjectBuffersIntoPendingTrace(t *testing.T) {
	_, tr, s := sampledBundle(t, TailSamplingConfig{}, 0)
	_, root := tr.StartSpan(context.Background(), "client.call")
	tr.Inject(SpanRecord{
		TraceID:  root.Context().TraceID,
		SpanID:   newSpanID(),
		ParentID: root.Context().SpanID,
		Name:     "server.dispatch",
		Err:      "boom",
	})
	if got := kept(s); got != 0 {
		t.Fatalf("injected span bypassed the pending table (%d recorded)", got)
	}
	root.End()
	// The injected server error makes the whole trace keep-worthy.
	if got := kept(s); got != 2 {
		t.Fatalf("trace with injected error recorded %d spans, want 2", got)
	}
}

func TestTailSamplerOrphanInjectCounts(t *testing.T) {
	reg, tr, s := sampledBundle(t, TailSamplingConfig{}, 0)
	tr.Inject(SpanRecord{TraceID: newTraceID(), SpanID: newSpanID(), Name: "orphan"})
	if got := counterValue(reg, `maqs_trace_dropped_total{reason="orphan"}`); got != 1 {
		t.Fatalf("dropped{orphan} = %d, want 1", got)
	}
	if got := kept(s); got != 0 {
		t.Fatalf("orphan span recorded (%d)", got)
	}
}

func TestTailSamplerSpanCapPerTrace(t *testing.T) {
	reg, tr, s := sampledBundle(t, TailSamplingConfig{}, 0)
	s.maxSpans = 2
	_, root := tr.StartSpan(context.Background(), "client.call")
	for i := 0; i < 4; i++ {
		noise := root.Child("noise")
		if i == 0 {
			noise.RecordError(errors.New("boom")) // buffered, so the trace is kept
		}
		noise.End()
	}
	root.End()
	if got := counterValue(reg, "maqs_trace_buffered_spans_dropped_total"); got != 3 {
		t.Fatalf("span overflow = %d, want 3", got)
	}
	if got := kept(s); got != 2 {
		t.Fatalf("kept trace recorded %d spans, want capped 2", got)
	}
}

func TestTailSamplerStats(t *testing.T) {
	reg, tr, s := sampledBundle(t, TailSamplingConfig{}, 0)
	_, root := tr.StartSpan(context.Background(), "client.call")
	root.RecordError(errors.New("boom"))
	root.End()
	if got := reg.Counter(`maqs_trace_kept_total{reason="` + KeepError + `"}`).Value(); got != 1 {
		t.Fatalf("kept[error] = %d, want 1", got)
	}
	if got := s.PendingCount(); got != 0 {
		t.Fatalf("pending = %d, want 0", got)
	}
	// A nil sampler holds nothing, and reading it does not panic.
	var nilS *TailSampler
	if got := nilS.PendingCount(); got != 0 {
		t.Fatalf("nil sampler pending = %d", got)
	}
}

func TestTailSamplerServerOnlyTraceDecidesOnRemoteRoot(t *testing.T) {
	reg, tr, s := sampledBundle(t, TailSamplingConfig{}, 0)
	parent := SpanContext{TraceID: newTraceID(), SpanID: newSpanID(), Sampled: true}
	root := tr.StartRemote(parent, "server.dispatch")
	servant := root.Child("server.servant")
	servant.End()
	root.RecordError(errors.New("boom"))
	root.End()
	if got := kept(s); got != 2 {
		t.Fatalf("server-only trace recorded %d spans, want 2", got)
	}
	if got := counterValue(reg, `maqs_trace_kept_total{reason="error"}`); got != 1 {
		t.Fatalf("kept{error} = %d, want 1", got)
	}
	if got := s.PendingCount(); got != 0 {
		t.Fatalf("pending table leaked %d entries", got)
	}
}

// TestTailSamplerKeepEveryLosesNothing: keeping every healthy trace is the
// record-everything policy, so nothing a sampler drops at a lower keep —
// spans over the per-trace cap, evicted traces, orphan spans — is lost.
func TestTailSamplerKeepEveryLosesNothing(t *testing.T) {
	reg, tr, s := sampledBundle(t, keepEvery, 0)
	s.maxSpans, s.maxPending = 2, 1
	_, root := tr.StartSpan(context.Background(), "client.call")
	for i := 0; i < 4; i++ {
		root.Child("noise").End()
	}
	if got := kept(s); got != 2 {
		t.Fatalf("spans over the cap: %d kept before the root ended, want 2", got)
	}
	// A second trace evicts the first: its two buffered spans are kept.
	_, next := tr.StartSpan(context.Background(), "client.call")
	if got := kept(s); got != 4 {
		t.Fatalf("evicted trace: %d kept, want 4", got)
	}
	root.End() // a late span of the evicted trace follows its verdict
	next.End()
	tr.Inject(SpanRecord{TraceID: newTraceID(), SpanID: newSpanID(), Name: "orphan"})
	if got := kept(s); got != 7 {
		t.Fatalf("%d spans kept, want all 7", got)
	}
	for _, name := range []string{"maqs_trace_buffered_spans_dropped_total",
		`maqs_trace_dropped_total{reason="evicted"}`, `maqs_trace_dropped_total{reason="orphan"}`} {
		if got := counterValue(reg, name); got != 0 {
			t.Errorf("%s = %d, want 0", name, got)
		}
	}
	if got := s.PendingCount(); got != 0 {
		t.Fatalf("pending table leaked %d entries", got)
	}
}

// TestCollectorRingWrap keeps more spans than the sampler's ring holds:
// the ring returns the newest, oldest first, and the /trace/ops
// aggregation still counts every span kept.
func TestCollectorRingWrap(t *testing.T) {
	_, _, s := sampledBundle(t, keepEvery, 4)
	base := time.Now()
	for i := 0; i < 6; i++ {
		s.keep(SpanRecord{TraceID: newTraceID(), Name: "op" + strconv.Itoa(i),
			Start: base.Add(time.Duration(i)), Duration: time.Millisecond})
	}
	spans := s.spans()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	for i, sp := range spans {
		if want := "op" + strconv.Itoa(2+i); sp.Name != want {
			t.Errorf("span %d = %q, want %q (oldest first)", i, sp.Name, want)
		}
	}
	var total uint64
	for _, st := range s.operations() {
		total += st.Count
	}
	if total != 6 {
		t.Fatalf("aggregated %d spans, want 6", total)
	}
}

// TestCollectorRingAndAggregation ends spans through the tracer and
// reads them back from the sampler's ring and its per-operation cells.
func TestCollectorRingAndAggregation(t *testing.T) {
	_, tr, s := sampledBundle(t, keepEvery, 4)
	for i := 0; i < 10; i++ {
		_, sp := tr.StartSpan(context.Background(), "stage")
		sp.SetOperation("echo")
		sp.SetAttr("i", strconv.Itoa(i))
		if i%2 == 0 {
			sp.RecordError(errors.New("fail"))
		}
		sp.End()
	}
	spans := s.spans()
	if len(spans) != 4 {
		t.Fatalf("ring retained %d spans, want 4", len(spans))
	}
	for i, sp := range spans {
		if want := strconv.Itoa(6 + i); sp.Attrs[0].Value != want {
			t.Errorf("span %d is call %s, want %s (oldest first)", i, sp.Attrs[0].Value, want)
		}
	}
	// The aggregation survives wrap-around: all 10 spans counted.
	agg, ok := s.operations()["stage:echo"]
	if !ok {
		t.Fatalf("missing aggregation key, have %v", s.operations())
	}
	if agg.Count != 10 || agg.Errors != 5 {
		t.Fatalf("agg = %+v, want count 10 errors 5", agg)
	}
	if agg.Min > agg.Max || agg.Total < agg.Max {
		t.Fatalf("inconsistent agg durations: %+v", agg)
	}
}

func TestKeptSpansOfTraceOrderByStart(t *testing.T) {
	_, _, s := sampledBundle(t, keepEvery, 8)
	abc, other := newTraceID(), newTraceID()
	base := time.Now()
	// Kept out of start order; spansOf must sort by Start.
	s.keep(SpanRecord{TraceID: abc, Name: "late", Start: base.Add(2 * time.Second)},
		SpanRecord{TraceID: abc, Name: "early", Start: base},
		SpanRecord{TraceID: other, Name: "other", Start: base.Add(time.Second)})
	got := s.spansOf(abc.String())
	if len(got) != 2 || got[0].Name != "early" || got[1].Name != "late" {
		t.Fatalf("spansOf = %+v", got)
	}
	for _, id := range []string{newTraceID().String(), strings.ToUpper(abc.String()), "abc", ""} {
		if n := len(s.spansOf(id)); n != 0 {
			t.Errorf("spansOf(%q) returned %d spans", id, n)
		}
	}
}

func TestKeptSpansAggregateErrorsAndBounds(t *testing.T) {
	_, _, s := sampledBundle(t, keepEvery, 8)
	s.keep(SpanRecord{Name: "call", Duration: time.Millisecond},
		SpanRecord{Name: "call", Duration: 9 * time.Millisecond, Err: "boom"})
	st, ok := s.operations()["call"]
	if !ok {
		t.Fatal("no aggregate for call")
	}
	if st.Count != 2 || st.Errors != 1 {
		t.Fatalf("count/errors = %d/%d", st.Count, st.Errors)
	}
	if st.Min != time.Millisecond || st.Max != 9*time.Millisecond || st.Total != 10*time.Millisecond {
		t.Fatalf("min/max/total = %v/%v/%v", st.Min, st.Max, st.Total)
	}
}
