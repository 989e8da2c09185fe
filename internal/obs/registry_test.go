package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("reqs") != c {
		t.Fatal("second lookup returned a different counter")
	}
	g := r.Gauge("depth")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestNilRegistryAndInstrumentsAreNoops(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(3)
	r.Histogram("z", nil).Observe(time.Millisecond)
	if n := len(r.Snapshot().Counters); n != 0 {
		t.Fatalf("nil registry snapshot has %d counters", n)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", &Bounds{Le: []float64{0.001, 0.01, 0.1}})
	h.Observe(500 * time.Microsecond) // bucket 0
	h.Observe(5 * time.Millisecond)   // bucket 1
	h.Observe(50 * time.Millisecond)  // bucket 2
	h.Observe(2 * time.Second)        // overflow
	snap := r.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("got %d histograms", len(snap.Histograms))
	}
	hs := snap.Histograms[0]
	if hs.Count != 4 {
		t.Fatalf("count = %d, want 4", hs.Count)
	}
	wantCum := []uint64{1, 2, 3, 4}
	for i, b := range hs.Buckets {
		if b.Count != wantCum[i] {
			t.Fatalf("bucket %d cumulative = %d, want %d", i, b.Count, wantCum[i])
		}
	}
	if hs.Sum < 2.0 || hs.Sum > 2.1 {
		t.Fatalf("sum = %g, want ~2.05", hs.Sum)
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.Histogram("h", nil).Observe(time.Duration(j) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h", nil).observations(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestCallbackInstruments(t *testing.T) {
	r := NewRegistry()
	hits := uint64(11)
	depth := int64(-3)
	r.CounterFunc("maqs_pool_hits_total", func() uint64 { return hits })
	r.gaugeFunc("maqs_queue_depth", func() int64 { return depth })
	snap := r.Snapshot()
	if snap.Counters["maqs_pool_hits_total"] != 11 {
		t.Fatalf("counter func value = %d", snap.Counters["maqs_pool_hits_total"])
	}
	if snap.Gauges["maqs_queue_depth"] != -3 {
		t.Fatalf("gauge func value = %d", snap.Gauges["maqs_queue_depth"])
	}
	// Callbacks are read at snapshot time, not registration time.
	hits, depth = 12, 4
	snap = r.Snapshot()
	if snap.Counters["maqs_pool_hits_total"] != 12 || snap.Gauges["maqs_queue_depth"] != 4 {
		t.Fatalf("callbacks not re-evaluated: %v %v", snap.Counters, snap.Gauges)
	}
	// Latest registration wins; text exposition includes callback values.
	r.CounterFunc("maqs_pool_hits_total", func() uint64 { return 99 })
	var text bytes.Buffer
	if err := r.Snapshot().WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "maqs_pool_hits_total 99") {
		t.Fatalf("text export missing callback counter:\n%s", text.String())
	}
	// Nil-safety.
	var nilReg *Registry
	nilReg.CounterFunc("x", func() uint64 { return 1 })
	nilReg.gaugeFunc("y", func() int64 { return 1 })
}

func TestSnapshotExports(t *testing.T) {
	r := NewRegistry()
	r.Counter("maqs_requests_total").Add(3)
	r.Gauge("maqs_bindings").Set(2)
	r.Histogram("maqs_rtt_seconds", &Bounds{Le: []float64{0.01}}).Observe(time.Millisecond)
	snap := r.Snapshot()

	var text bytes.Buffer
	if err := snap.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"maqs_requests_total 3",
		"maqs_bindings 2",
		`maqs_rtt_seconds_bucket{le="0.01"} 1`,
		`maqs_rtt_seconds_bucket{le="+Inf"} 1`,
		"maqs_rtt_seconds_count 1",
	} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("text export missing %q:\n%s", want, text.String())
		}
	}

	jsonBytes, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Snapshot
	if err := json.Unmarshal(jsonBytes, &decoded); err != nil {
		t.Fatalf("JSON export does not round-trip: %v", err)
	}
	if decoded.Counters["maqs_requests_total"] != 3 {
		t.Fatalf("decoded counter = %d", decoded.Counters["maqs_requests_total"])
	}
}
