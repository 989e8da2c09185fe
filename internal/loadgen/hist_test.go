package loadgen

import (
	"math"
	"math/rand/v2"
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
// (2^-histSubBits) of the true value — the log-bucketing contract.
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
		h := NewHist()
		for i := 0; i < 100; i++ {
			h.Record(v)
		}
		s := h.Snapshot()
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 1} {
			got := s.Quantile(q)
			if errAbs := math.Abs(float64(got - v)); errAbs > relTol*float64(v)+1 {
				t.Errorf("value %v: q%.3f = %v (error %.0fns exceeds resolution)", v, q, got, errAbs)
			}
		}
		if s.Max != int64(v) {
			t.Errorf("value %v: max = %d (max must be exact)", v, s.Max)
		}
		if s.Min != int64(v) {
			t.Errorf("value %v: min = %d (min must be exact)", v, s.Min)
		}
	}
}

// TestQuantileMixedDistribution checks quantile ordering and median
// accuracy on a two-mode distribution.
func TestQuantileMixedDistribution(t *testing.T) {
	h := NewHist()
	for i := 0; i < 900; i++ {
		h.Record(time.Millisecond)
	}
	for i := 0; i < 100; i++ {
		h.Record(time.Second)
	}
	s := h.Snapshot()
	if p50 := s.Quantile(0.5); p50 < 900*time.Microsecond || p50 > 1100*time.Microsecond {
		t.Fatalf("p50 = %v, want ~1ms", p50)
	}
	if p99 := s.Quantile(0.99); p99 < 900*time.Millisecond {
		t.Fatalf("p99 = %v, want ~1s", p99)
	}
	if s.Quantile(0.5) > s.Quantile(0.9) || s.Quantile(0.9) > s.Quantile(0.99) {
		t.Fatal("quantiles must be monotone")
	}
}

func TestMergeAssociativity(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	mk := func(n int, scale time.Duration) HistSnapshot {
		h := NewHist()
		for i := 0; i < n; i++ {
			h.Record(time.Duration(rng.Int64N(int64(scale))) + 1)
		}
		return h.Snapshot()
	}
	a, b, c := mk(500, time.Millisecond), mk(300, time.Second), mk(700, 10*time.Microsecond)

	var left HistSnapshot // (a ⊕ b) ⊕ c
	left.Merge(a)
	left.Merge(b)
	left.Merge(c)

	var bc HistSnapshot // a ⊕ (b ⊕ c)
	bc.Merge(b)
	bc.Merge(c)
	var right HistSnapshot
	right.Merge(a)
	right.Merge(bc)

	var rev HistSnapshot // c ⊕ b ⊕ a
	rev.Merge(c)
	rev.Merge(b)
	rev.Merge(a)

	for _, other := range []HistSnapshot{right, rev} {
		if left.Count != other.Count || left.Sum != other.Sum || left.Min != other.Min || left.Max != other.Max {
			t.Fatalf("merge totals differ: %+v vs %+v",
				HistSnapshot{Count: left.Count, Sum: left.Sum, Min: left.Min, Max: left.Max},
				HistSnapshot{Count: other.Count, Sum: other.Sum, Min: other.Min, Max: other.Max})
		}
		for i := range left.Counts {
			if left.Counts[i] != other.Counts[i] {
				t.Fatalf("bucket %d differs after reordered merge", i)
			}
		}
		for _, q := range []float64{0.5, 0.99, 0.999} {
			if left.Quantile(q) != other.Quantile(q) {
				t.Fatalf("q%.3f differs after reordered merge", q)
			}
		}
	}
}

// TestConcurrentRecord hammers one histogram from several goroutines and
// checks totals (run under -race in make check).
func TestConcurrentRecord(t *testing.T) {
	h := NewHist()
	const workers, per = 8, 5000
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func(seed uint64) {
			rng := rand.New(rand.NewPCG(seed, seed))
			for i := 0; i < per; i++ {
				h.Record(time.Duration(rng.Int64N(int64(time.Second))))
			}
			done <- struct{}{}
		}(uint64(w + 1))
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	if s := h.Snapshot(); s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
}

func TestNilHistIsNoop(t *testing.T) {
	var h *Hist
	h.Record(time.Second)
	if s := h.Snapshot(); s.Count != 0 || s.Quantile(0.99) != 0 {
		t.Fatalf("nil hist snapshot = %+v", s)
	}
}
