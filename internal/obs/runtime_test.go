package obs

import (
	"strings"
	"testing"
)

func TestRuntimeMetricsRegistered(t *testing.T) {
	o := New()
	snap := o.Registry.Snapshot()
	if g := snap.Gauges["maqs_go_goroutines"]; g <= 0 {
		t.Fatalf("maqs_go_goroutines = %d, want > 0", g)
	}
	if g := snap.Gauges["maqs_go_heap_bytes"]; g <= 0 {
		t.Fatalf("maqs_go_heap_bytes = %d, want > 0", g)
	}
	if _, ok := snap.Floats["maqs_go_gc_pause_seconds_total"]; !ok {
		t.Fatal("maqs_go_gc_pause_seconds_total missing from snapshot floats")
	}
}

func TestRuntimeMetricsOnMetricsEndpoint(t *testing.T) {
	o := New()
	body := get(t, o.Handler(), "/metrics").Body.String()
	for _, want := range []string{
		"maqs_go_goroutines ",
		"maqs_go_heap_bytes ",
		"maqs_go_gc_pause_seconds_total ",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func TestFloatFuncSnapshotAndText(t *testing.T) {
	r := NewRegistry()
	r.FloatFunc("maqs_test_seconds_total", func() float64 { return 1.5 })
	snap := r.Snapshot()
	if v := snap.Floats["maqs_test_seconds_total"]; v != 1.5 {
		t.Fatalf("float = %g, want 1.5", v)
	}
	var sb strings.Builder
	if err := snap.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "maqs_test_seconds_total 1.5\n") {
		t.Fatalf("text exposition missing float line:\n%s", sb.String())
	}
	// Nil-safety mirrors the other instrument families.
	var nilReg *Registry
	nilReg.FloatFunc("x", func() float64 { return 1 })
	r.FloatFunc("ignored", nil)
	if _, ok := r.Snapshot().Floats["ignored"]; ok {
		t.Fatal("nil callback must not register")
	}
}

func TestSetDebugPage(t *testing.T) {
	o := New()
	o.SetDebugPage("/status", func() any {
		return map[string]any{"running": true, "classes": []string{"gold"}}
	})
	h := o.Handler()

	body := get(t, h, "/status").Body.String()
	if !strings.Contains(body, `"running": true`) || !strings.Contains(body, "gold") {
		t.Fatalf("/status body = %s", body)
	}
	// The index lists the page.
	if idx := get(t, h, "/").Body.String(); !strings.Contains(idx, "/status") {
		t.Fatalf("index missing /status:\n%s", idx)
	}
	// Registration after Handler() still serves (consulted per request).
	o.SetDebugPage("/late", func() any { return "late" })
	if body := get(t, h, "/late").Body.String(); !strings.Contains(body, "late") {
		t.Fatalf("/late body = %s", body)
	}
	// Removal 404s.
	o.SetDebugPage("/late", nil)
	if code := get(t, h, "/late").Code; code != 404 {
		t.Fatalf("removed page returned %d, want 404", code)
	}
	// Built-in routes are not shadowed by pages.
	o.SetDebugPage("/metrics", func() any { return "shadow" })
	if body := get(t, h, "/metrics").Body.String(); strings.Contains(body, "shadow") {
		t.Fatal("debug page must not shadow /metrics")
	}
	// Nil bundle tolerates registration.
	var nilObs *Observability
	nilObs.SetDebugPage("/x", func() any { return nil })
}
