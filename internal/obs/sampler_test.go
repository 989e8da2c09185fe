package obs

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// sampledBundle builds a collector/registry/tracer/sampler quartet for
// tail-sampling tests.
func sampledBundle(t *testing.T, cfg TailSamplingConfig) (*Collector, *Registry, *Tracer, *TailSampler) {
	t.Helper()
	c := NewCollector(0)
	reg := NewRegistry()
	s := newTailSampler(c, reg, cfg)
	tr := NewTracer(c)
	tr.setSampler(s)
	return c, reg, tr, s
}

func counterValue(reg *Registry, name string) uint64 { return reg.Counter(name).Value() }

func TestTailSamplerDropsHealthyAtZeroFraction(t *testing.T) {
	c, reg, tr, s := sampledBundle(t, TailSamplingConfig{HealthyKeepFraction: 0})
	_, root := tr.StartSpan(context.Background(), "client.call")
	child := root.Child("wire.send")
	child.End()
	root.End()
	if got := c.TotalRecorded(); got != 0 {
		t.Fatalf("healthy trace reached collector: %d spans", got)
	}
	if got := counterValue(reg, `maqs_trace_dropped_total{reason="healthy"}`); got != 1 {
		t.Fatalf("dropped{healthy} = %d, want 1", got)
	}
	if got := s.PendingCount(); got != 0 {
		t.Fatalf("pending table leaked %d entries", got)
	}
}

func TestTailSamplerKeepsHealthyAtFullFraction(t *testing.T) {
	c, reg, tr, _ := sampledBundle(t, TailSamplingConfig{HealthyKeepFraction: 1})
	_, root := tr.StartSpan(context.Background(), "client.call")
	root.End()
	if got := c.TotalRecorded(); got != 1 {
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
		{"shed", errors.New("request shed by admission control (queue full, class bulk)"), "", KeepShed},
		{"deadline", errors.New("invocation of echo timed out"), "", KeepDeadline},
		{"retry", nil, "retry.attempt", KeepRetry},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, reg, tr, _ := sampledBundle(t, TailSamplingConfig{})
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
			if got := c.TotalRecorded(); got != 2 {
				t.Fatalf("kept trace recorded %d spans, want 2", got)
			}
		})
	}
}

func TestTailSamplerSlowThresholdPerClass(t *testing.T) {
	c, reg, tr, s := sampledBundle(t, TailSamplingConfig{})
	s.SetSlowThreshold("bulk", time.Nanosecond)
	_, root := tr.StartSpan(context.Background(), "client.call")
	root.SetAttr("characteristic", "bulk")
	time.Sleep(time.Millisecond)
	root.End()
	if got := counterValue(reg, `maqs_trace_kept_total{reason="slow"}`); got != 1 {
		t.Fatalf("kept{slow} = %d, want 1", got)
	}
	if got := c.TotalRecorded(); got != 1 {
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
	_, reg, tr, _ := sampledBundle(t, TailSamplingConfig{SlowThreshold: time.Nanosecond})
	_, root := tr.StartSpan(context.Background(), "client.call")
	time.Sleep(time.Millisecond)
	root.End()
	if got := counterValue(reg, `maqs_trace_kept_total{reason="slow"}`); got != 1 {
		t.Fatalf("kept{slow} = %d, want 1", got)
	}
}

func TestTailSamplerAnomalyPinsTrace(t *testing.T) {
	c, reg, tr, s := sampledBundle(t, TailSamplingConfig{})
	_, root := tr.StartSpan(context.Background(), "client.call")
	s.MarkAnomaly(root.Context().TraceID.String())
	root.End()
	if got := counterValue(reg, `maqs_trace_kept_total{reason="anomaly"}`); got != 1 {
		t.Fatalf("kept{anomaly} = %d, want 1", got)
	}
	if got := c.TotalRecorded(); got != 1 {
		t.Fatalf("anomaly trace recorded %d spans, want 1", got)
	}
}

func TestTailSamplerAnomalyBeforeFirstSpan(t *testing.T) {
	_, reg, tr, s := sampledBundle(t, TailSamplingConfig{})
	trace := newTraceID()
	s.MarkAnomaly(trace.String())
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

func TestTailSamplerEvictsOldestPending(t *testing.T) {
	_, reg, tr, s := sampledBundle(t, TailSamplingConfig{})
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
	c, _, tr, _ := sampledBundle(t, TailSamplingConfig{})
	_, root := tr.StartSpan(context.Background(), "client.call")
	late := root.Child("late")
	root.RecordError(errors.New("boom"))
	root.End()
	// The trace has not quiesced (late is open), so nothing decided yet.
	if got := c.TotalRecorded(); got != 0 {
		t.Fatalf("undecided trace already recorded %d spans", got)
	}
	late.End()
	if got := c.TotalRecorded(); got != 2 {
		t.Fatalf("decided trace recorded %d spans, want 2", got)
	}
	// A post-decision straggler in the kept trace records directly.
	tr.Inject(SpanRecord{TraceID: root.Context().TraceID.String(), SpanID: newSpanID().String(), Name: "straggler"})
	if got := c.TotalRecorded(); got != 3 {
		t.Fatalf("late injected span not recorded (total %d)", got)
	}
}

func TestTailSamplerInjectBuffersIntoPendingTrace(t *testing.T) {
	c, _, tr, _ := sampledBundle(t, TailSamplingConfig{})
	_, root := tr.StartSpan(context.Background(), "client.call")
	tr.Inject(SpanRecord{
		TraceID:  root.Context().TraceID.String(),
		SpanID:   newSpanID().String(),
		ParentID: root.Context().SpanID.String(),
		Name:     "server.dispatch",
		Err:      "boom",
	})
	if got := c.TotalRecorded(); got != 0 {
		t.Fatalf("injected span bypassed the pending table (%d recorded)", got)
	}
	root.End()
	// The injected server error makes the whole trace keep-worthy.
	if got := c.TotalRecorded(); got != 2 {
		t.Fatalf("trace with injected error recorded %d spans, want 2", got)
	}
}

func TestTailSamplerOrphanInjectCounts(t *testing.T) {
	c, reg, tr, _ := sampledBundle(t, TailSamplingConfig{})
	tr.Inject(SpanRecord{TraceID: newTraceID().String(), SpanID: newSpanID().String(), Name: "orphan"})
	if got := counterValue(reg, `maqs_trace_dropped_total{reason="orphan"}`); got != 1 {
		t.Fatalf("dropped{orphan} = %d, want 1", got)
	}
	if got := c.TotalRecorded(); got != 0 {
		t.Fatalf("orphan span recorded (%d)", got)
	}
}

func TestTailSamplerSpanCapPerTrace(t *testing.T) {
	c, reg, tr, s := sampledBundle(t, TailSamplingConfig{HealthyKeepFraction: 1})
	s.maxSpans = 2
	_, root := tr.StartSpan(context.Background(), "client.call")
	for i := 0; i < 4; i++ {
		root.Child("noise").End()
	}
	root.End()
	if got := counterValue(reg, "maqs_trace_buffered_spans_dropped_total"); got != 3 {
		t.Fatalf("span overflow = %d, want 3", got)
	}
	if got := c.TotalRecorded(); got != 2 {
		t.Fatalf("kept trace recorded %d spans, want capped 2", got)
	}
}

func TestTailSamplerStats(t *testing.T) {
	_, _, tr, s := sampledBundle(t, TailSamplingConfig{})
	_, root := tr.StartSpan(context.Background(), "client.call")
	root.RecordError(errors.New("boom"))
	root.End()
	st := s.Stats()
	if st.Kept[KeepError] != 1 {
		t.Fatalf("stats kept[error] = %d, want 1", st.Kept[KeepError])
	}
	if st.Pending != 0 {
		t.Fatalf("stats pending = %d, want 0", st.Pending)
	}
	// Nil sampler stats are empty, not a panic.
	var nilS *TailSampler
	if got := nilS.Stats(); got.Pending != 0 || len(got.Kept) != 0 {
		t.Fatalf("nil sampler stats = %+v", got)
	}
}

func TestTailSamplerServerOnlyTraceDecidesOnRemoteRoot(t *testing.T) {
	c, reg, tr, s := sampledBundle(t, TailSamplingConfig{})
	parent := SpanContext{TraceID: newTraceID(), SpanID: newSpanID(), Sampled: true}
	root := tr.StartRemote(parent, "server.dispatch")
	servant := root.Child("server.servant")
	servant.End()
	root.RecordError(errors.New("boom"))
	root.End()
	if got := c.TotalRecorded(); got != 2 {
		t.Fatalf("server-only trace recorded %d spans, want 2", got)
	}
	if got := counterValue(reg, `maqs_trace_kept_total{reason="error"}`); got != 1 {
		t.Fatalf("kept{error} = %d, want 1", got)
	}
	if got := s.PendingCount(); got != 0 {
		t.Fatalf("pending table leaked %d entries", got)
	}
}
