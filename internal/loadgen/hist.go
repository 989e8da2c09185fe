package loadgen

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// The histogram is log-linear, HDR-style: durations are bucketed by
// keeping histSubBits significant bits of the nanosecond value, giving a
// bounded *relative* quantile error of 2^-histSubBits (≈1.6%) across the
// whole range — one flat array covers 1ns to ~2.4h with no tuning, which
// is what lets a single histogram hold both a 40µs loopback echo and a
// multi-second coordinated-omission backlog without losing the tail.
const (
	histSubBits  = 6
	histSubCount = 1 << histSubBits // linear sub-buckets per power of two

	// histOctaves bounds the value range: the last bucket's upper edge is
	// (2·histSubCount-1) << (histOctaves-1) ns ≈ 2.4h. Larger values are
	// clamped into it (and still dominate Max(), which is exact).
	histOctaves = 37
	histBuckets = (histOctaves + 1) * histSubCount
)

// Hist is a concurrency-safe log-bucketed latency histogram. Record is a
// few atomic operations; quantiles are computed from snapshots. A nil
// *Hist is a no-op recorder, matching the obs instrument convention.
type Hist struct {
	counts [histBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64 // nanoseconds
	max    atomic.Int64
	min    atomic.Int64 // valid only when count > 0
}

// NewHist constructs an empty histogram.
func NewHist() *Hist {
	h := &Hist{}
	h.min.Store(int64(1) << 62)
	return h
}

// bucketIndex maps a nanosecond value to its bucket. Values below
// histSubCount are exact; above, the top histSubBits+1 bits select the
// bucket, so bucket width grows with magnitude while relative resolution
// stays fixed.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < histSubCount {
		return int(v)
	}
	e := 63 - bits.LeadingZeros64(uint64(v)) // floor(log2 v) ≥ histSubBits
	o := e - histSubBits + 1
	if o > histOctaves {
		return histBuckets - 1
	}
	m := int(v>>uint(o-1)) - histSubCount // 0 .. histSubCount-1
	return o*histSubCount + m
}

// bucketLow returns the smallest value mapping to bucket i.
func bucketLow(i int) int64 {
	if i < histSubCount {
		return int64(i)
	}
	o := i / histSubCount
	m := i % histSubCount
	return int64(histSubCount+m) << uint(o-1)
}

// bucketMid returns the midpoint of bucket i, the value reported for
// quantiles landing in it.
func bucketMid(i int) int64 {
	if i < histSubCount {
		return int64(i)
	}
	o := i / histSubCount
	width := int64(1) << uint(o-1)
	return bucketLow(i) + (width-1)/2
}

// Record adds one observed duration.
func (h *Hist) Record(d time.Duration) {
	if h == nil {
		return
	}
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			break
		}
	}
	for {
		old := h.min.Load()
		if v >= old || h.min.CompareAndSwap(old, v) {
			break
		}
	}
}

// Snapshot captures a consistent-enough view (buckets are read without a
// global lock; totals may trail by an in-flight observation).
func (h *Hist) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	if s.Count > 0 {
		s.Min = h.min.Load()
	}
	for i := range h.counts {
		if c := h.counts[i].Load(); c > 0 {
			if s.Counts == nil {
				s.Counts = make([]uint64, histBuckets)
			}
			s.Counts[i] = c
		}
	}
	return s
}

// HistSnapshot is an immutable capture of a Hist, the unit of quantile
// computation and of merging (scenario workers each hold a Hist; reports
// merge the snapshots — merging is associative and commutative, see
// TestMergeAssociativity).
type HistSnapshot struct {
	Counts []uint64 // len histBuckets, nil when empty
	Count  uint64
	Sum    int64 // nanoseconds
	Min    int64
	Max    int64
}

// Merge folds other into s.
func (s *HistSnapshot) Merge(other HistSnapshot) {
	if other.Count == 0 {
		return
	}
	if s.Counts == nil {
		s.Counts = make([]uint64, histBuckets)
	}
	for i, c := range other.Counts {
		s.Counts[i] += c
	}
	if s.Count == 0 || other.Min < s.Min {
		s.Min = other.Min
	}
	if other.Max > s.Max {
		s.Max = other.Max
	}
	s.Count += other.Count
	s.Sum += other.Sum
}

// Quantile returns the q-quantile (0 < q ≤ 1) as a duration, resolved to
// the midpoint of the bucket holding the rank — within the histogram's
// relative resolution of the true value. Quantile(1) returns the exact
// recorded maximum. An empty snapshot returns 0.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q >= 1 {
		return time.Duration(s.Max)
	}
	if q < 0 {
		q = 0
	}
	rank := uint64(q * float64(s.Count))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			mid := bucketMid(i)
			if mid > s.Max {
				mid = s.Max
			}
			if mid < s.Min {
				mid = s.Min
			}
			return time.Duration(mid)
		}
	}
	return time.Duration(s.Max)
}

// mean returns the arithmetic mean (exact, from the running sum).
func (s HistSnapshot) mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.Sum / int64(s.Count))
}
