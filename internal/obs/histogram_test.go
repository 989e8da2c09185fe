package obs

import (
	"math"
	"math/rand/v2"
	"sync"
	"testing"
	"time"
)

// TestBucketRoundTrip pins the indexing scheme: every bucket's low edge
// maps back to its own index, indexes are monotone, and adjacent buckets
// tile the value range without gaps.
func TestBucketRoundTrip(t *testing.T) {
	for i := 0; i < histBuckets; i++ {
		if got := bucketIndex(bucketLow(i)); got != i {
			t.Fatalf("bucketIndex(bucketLow(%d)) = %d", i, got)
		}
		if mid := bucketMid(i); bucketIndex(mid) != i {
			t.Fatalf("midpoint of bucket %d lands in bucket %d", i, bucketIndex(mid))
		}
	}
	for i := 1; i < histBuckets; i++ {
		if bucketLow(i) != bucketLow(i-1)+bucketWidth(i-1) {
			t.Fatalf("gap between buckets %d and %d: %d vs %d+%d",
				i-1, i, bucketLow(i), bucketLow(i-1), bucketWidth(i-1))
		}
	}
}

func bucketWidth(i int) int64 {
	if i < histSubCount {
		return 1
	}
	return int64(1) << uint(i/histSubCount-1)
}

// TestQuantileExactRecovery records known values and requires every
// quantile to come back within the histogram's relative resolution
// (2^-histSubBits) of the true value — the log-bucketing contract — and
// the extremes exactly.
func TestQuantileExactRecovery(t *testing.T) {
	values := []time.Duration{
		1 * time.Nanosecond,
		63 * time.Nanosecond,
		64 * time.Nanosecond,
		777 * time.Nanosecond,
		42 * time.Microsecond,
		1500 * time.Microsecond,
		33 * time.Millisecond,
		2 * time.Second,
		95 * time.Second,
	}
	relTol := 1.0 / float64(histSubCount)
	for _, v := range values {
		var h Histogram
		for i := 0; i < 100; i++ {
			h.Observe(v)
		}
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 1} {
			got := h.Quantile(q)
			if errAbs := math.Abs(float64(got - v)); errAbs > relTol*float64(v)+1 {
				t.Errorf("value %v: q%.3f = %v (error %.0fns exceeds resolution)", v, q, got, errAbs)
			}
		}
		if lo, hi := h.extremes(); lo != int64(v) || hi != int64(v) {
			t.Errorf("value %v: min/max = %d/%d (extremes must be exact)", v, lo, hi)
		}
		if h.mean() != v {
			t.Errorf("value %v: mean = %v", v, h.mean())
		}
	}
}

// TestQuantileMixedDistribution checks quantile ordering and median
// accuracy on a two-mode distribution.
func TestQuantileMixedDistribution(t *testing.T) {
	var h Histogram
	for i := 0; i < 900; i++ {
		h.Observe(time.Millisecond)
	}
	for i := 0; i < 100; i++ {
		h.Observe(time.Second)
	}
	if p50 := h.Quantile(0.5); p50 < 900*time.Microsecond || p50 > 1100*time.Microsecond {
		t.Fatalf("p50 = %v, want ~1ms", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 900*time.Millisecond {
		t.Fatalf("p99 = %v, want ~1s", p99)
	}
	if h.Quantile(0.5) > h.Quantile(0.9) || h.Quantile(0.9) > h.Quantile(0.99) {
		t.Fatal("quantiles must be monotone")
	}
}

// TestConcurrentRecord hammers one histogram from several goroutines and
// checks totals (run under -race in make check).
func TestConcurrentRecord(t *testing.T) {
	var h Histogram
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, seed))
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(rng.Int64N(int64(time.Second))))
			}
		}(uint64(w + 1))
	}
	wg.Wait()
	if lo, hi := h.extremes(); h.observations() != workers*per || lo > hi {
		t.Fatalf("count = %d, want %d (min %d, max %d)", h.observations(), workers*per, lo, hi)
	}
}

func TestNilHistIsNoop(t *testing.T) {
	var h *Histogram
	h.Observe(time.Second)
	h.ObserveExemplar(time.Second, TraceID{1}, SpanID{1})
	if h.observations() != 0 || h.Quantile(0.99) != 0 || h.mean() != 0 {
		t.Fatal("nil histogram recorded")
	}
}

// TestHistogramObserveAllocs gates the recording paths: Observe and an
// untraced ObserveExemplar allocate nothing, a traced one allocates its
// exemplar and nothing else — the fixed-bucket histogram this type
// replaced measured 0, 0 and 1.
func TestHistogramObserveAllocs(t *testing.T) {
	h := NewRegistry().Histogram("maqs_alloc_seconds", nil, "class", "gold")
	for _, c := range []struct {
		what string
		f    func()
		max  float64
	}{
		{"Observe", func() { h.Observe(time.Millisecond) }, 0},
		{"ObserveExemplar without ids", func() { h.ObserveExemplar(time.Millisecond, TraceID{}, SpanID{}) }, 0},
		{"ObserveExemplar with ids", func() { h.ObserveExemplar(time.Millisecond, TraceID{1}, SpanID{1}) }, 1},
	} {
		if got := testing.AllocsPerRun(1000, c.f); got > c.max {
			t.Errorf("%s allocates %.1f, want ≤ %.0f", c.what, got, c.max)
		}
	}
}

// TestKeepSpanAllocs pins that keeping a span — its ring slot and its
// (span, operation) cell — allocates nothing once the cell exists.
func TestKeepSpanAllocs(t *testing.T) {
	s := newTailSampler(4, nil, TailSamplingConfig{HealthyKeepFraction: 1})
	rec := SpanRecord{Name: "server.dispatch", Operation: "echo", Duration: time.Millisecond}
	s.keep(rec)
	if got := testing.AllocsPerRun(1000, func() { s.keep(rec) }); got != 0 {
		t.Fatalf("keep allocates %.1f, want 0", got)
	}
}
