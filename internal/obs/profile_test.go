package obs

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestProfilerCapturesOnWatchedAnomaly(t *testing.T) {
	reg := NewRegistry()
	p := newProfiler(reg, ProfilingConfig{CPUDuration: 10 * time.Millisecond})
	p.onAnomaly("slo-burn-1", AnomalySLOBurn, TraceID{})
	p.Flush()
	caps := p.summaries()
	if len(caps) != 1 {
		t.Fatalf("captures = %d, want 1", len(caps))
	}
	c := caps[0]
	if c.ID != "slo-burn-1" || c.Kind != AnomalySLOBurn {
		t.Fatalf("capture identity = %s/%s", c.ID, c.Kind)
	}
	if !c.Done {
		t.Fatal("capture not done after Flush")
	}
	if c.HeapBytes == 0 {
		t.Fatal("heap snapshot empty")
	}
	if c.CPUBytes == 0 {
		t.Fatalf("cpu profile empty (err=%q)", c.Err)
	}
	if got := reg.Counter("maqs_profile_captures_total").Value(); got != 1 {
		t.Fatalf("captures_total = %d, want 1", got)
	}
}

func TestProfilerIgnoresUnwatchedKinds(t *testing.T) {
	p := newProfiler(NewRegistry(), ProfilingConfig{CPUDuration: time.Millisecond})
	p.onAnomaly("deadline-miss-1", AnomalyDeadlineMiss, TraceID{})
	p.onAnomaly("qos-violation-1", AnomalyQoSViolation, TraceID{})
	p.Flush()
	if got := len(p.summaries()); got != 0 {
		t.Fatalf("unwatched anomalies captured %d profiles", got)
	}
}

func TestProfilerEvictionIsKindAware(t *testing.T) {
	p := newProfiler(NewRegistry(), ProfilingConfig{CPUDuration: time.Millisecond, MaxCaptures: 2})
	p.onAnomaly("breaker-open-1", AnomalyBreakerOpen, TraceID{})
	p.Flush()
	for i := 0; i < 3; i++ {
		p.onAnomaly(fmt.Sprintf("slo-burn-%d", i+1), AnomalySLOBurn, TraceID{})
		p.Flush()
	}
	caps := p.summaries()
	if len(caps) != 2 {
		t.Fatalf("captures = %d, want 2", len(caps))
	}
	kinds := map[string]int{}
	for _, c := range caps {
		kinds[c.Kind]++
	}
	if kinds[AnomalyBreakerOpen] != 1 {
		t.Fatalf("slo-burn flood evicted the only breaker-open capture: %v", kinds)
	}
}

func TestProfileEndpoint(t *testing.T) {
	o := NewWithConfig(Config{Profiling: &ProfilingConfig{CPUDuration: 10 * time.Millisecond}})
	o.Flight.SetDumpCooldown(0)
	dumpID := o.Flight.Trigger(AnomalySLOBurn, FlightRecord{Operation: "(slo)"})
	if dumpID == "" {
		t.Fatal("trigger suppressed")
	}
	o.Profiler.Flush()
	h := o.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/profile", nil))
	if rec.Code != 200 {
		t.Fatalf("/profile index: %d", rec.Code)
	}
	body := rec.Body.String()
	if want := `"` + dumpID + `"`; !strings.Contains(body, want) {
		t.Fatalf("/profile index missing capture %s: %s", dumpID, body)
	}

	for _, kind := range []string{"cpu", "heap"} {
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/profile?id="+dumpID+"&kind="+kind, nil))
		if rec.Code != 200 {
			t.Fatalf("/profile %s download: %d %s", kind, rec.Code, rec.Body.String())
		}
		if rec.Body.Len() == 0 {
			t.Fatalf("/profile %s download empty", kind)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/octet-stream" {
			t.Fatalf("/profile %s content type %q", kind, ct)
		}
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/profile?id=nope", nil))
	if rec.Code != 404 {
		t.Fatalf("unknown id: %d, want 404", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/profile?id="+dumpID+"&kind=goroutine", nil))
	if rec.Code != 400 {
		t.Fatalf("bad kind: %d, want 400", rec.Code)
	}
}
