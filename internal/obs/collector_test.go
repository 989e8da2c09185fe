package obs

import (
	"strconv"
	"testing"
	"time"
)

func spanAt(name, traceID string, start time.Time, d time.Duration) SpanRecord {
	return SpanRecord{TraceID: traceID, SpanID: "s", Name: name, Start: start, Duration: d}
}

func TestCollectorRingWrap(t *testing.T) {
	c := NewCollector(4)
	base := time.Now()
	for i := 0; i < 6; i++ {
		c.record(spanAt("op"+strconv.Itoa(i), "t", base.Add(time.Duration(i)), time.Millisecond))
	}
	if got := c.TotalRecorded(); got != 6 {
		t.Fatalf("TotalRecorded = %d, want 6", got)
	}
	spans := c.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	for i, s := range spans {
		if want := "op" + strconv.Itoa(2+i); s.Name != want {
			t.Errorf("span %d = %q, want %q (oldest first)", i, s.Name, want)
		}
	}
	// Aggregation survives wrap-around: all 6 spans counted.
	var total uint64
	for _, st := range c.Operations() {
		total += st.Count
	}
	if total != 6 {
		t.Fatalf("aggregated %d spans, want 6", total)
	}
}

func TestCollectorTraceOrdersByStart(t *testing.T) {
	c := NewCollector(8)
	base := time.Now()
	// Recorded out of start order; Trace must sort by Start.
	c.record(spanAt("late", "abc", base.Add(2*time.Second), time.Millisecond))
	c.record(spanAt("early", "abc", base, time.Millisecond))
	c.record(spanAt("other", "zzz", base.Add(time.Second), time.Millisecond))
	got := c.spansOf("abc")
	if len(got) != 2 || got[0].Name != "early" || got[1].Name != "late" {
		t.Fatalf("Trace = %+v", got)
	}
	if len(c.spansOf("missing")) != 0 {
		t.Error("unknown trace returned spans")
	}
}

func TestCollectorAggregatesErrorsAndBounds(t *testing.T) {
	c := NewCollector(8)
	base := time.Now()
	fast := spanAt("call", "t", base, time.Millisecond)
	slow := spanAt("call", "t", base, 9*time.Millisecond)
	slow.Err = "boom"
	c.record(fast)
	c.record(slow)
	st, ok := c.Operations()["call"]
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

func TestCollectorResetAndNilSafety(t *testing.T) {
	c := NewCollector(4)
	c.record(spanAt("x", "t", time.Now(), time.Millisecond))
	c.Reset()
	if len(c.Snapshot()) != 0 || c.TotalRecorded() != 0 || len(c.Operations()) != 0 {
		t.Fatal("Reset left state behind")
	}
	var nc *Collector
	if nc.Snapshot() != nil || nc.TotalRecorded() != 0 {
		t.Error("nil collector not inert")
	}
	if ops := nc.Operations(); len(ops) != 0 {
		t.Error("nil collector operations non-empty")
	}
	nc.Reset()
}
