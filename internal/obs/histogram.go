package obs

import (
	"cmp"
	"encoding/json"
	"math"
	"math/bits"
	"strconv"
	"sync/atomic"
	"time"
)

// The histogram is log-linear, HDR-style: a value keeps histSubBits
// significant bits, a relative error of 2^-histSubBits (≈1.6%) over the
// whole range — one flat array spans 1ns to ~2.4h (or 1 B to ~8.8 TB), so a
// 40µs echo, a multi-second backlog and a frame size need no tuning.
const (
	histSubBits  = 6
	histSubCount = 1 << histSubBits // linear sub-buckets per power of two
	// histOctaves bounds the range; larger values clamp into the last
	// bucket (the maximum stays exact).
	histOctaves = 37
	histBuckets = (histOctaves + 1) * histSubCount
)

// Histogram is the tree's one histogram: log-bucketed and lock-free, with
// exact count, sum and extremes and quantiles read from the buckets.
// Observe is a bucket index and a few atomic operations. The zero value is
// ready to use and a nil *Histogram records nothing. How a family renders
// is the Bounds it is registered with, not part of the recorder.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64
	max    atomic.Int64
	// minInv is math.MaxInt64 − minimum: zero means "none yet", and both
	// extremes are the same compare-and-swap maximum.
	minInv atomic.Int64
	// exemplars keeps the newest traced observation per octave, the link
	// from a tail bucket to its flight record.
	exemplars [histOctaves + 1]atomic.Pointer[Exemplar]
}

// Exemplar links one observation to the trace that produced it, so a p99
// outlier on /metrics resolves to a span and a flight record.
type Exemplar struct {
	TraceID TraceID `json:"trace_id"`
	SpanID  SpanID  `json:"span_id"` // omitted from JSON when zero
	// Value is the observation in the family's unit (seconds for latency).
	Value float64   `json:"value"`
	At    time.Time `json:"at"`
	raw   int64
}

// MarshalJSON writes the exemplar with a zero span ID left out.
func (x Exemplar) MarshalJSON() ([]byte, error) {
	type fields Exemplar
	return json.Marshal(struct {
		TraceID TraceID `json:"trace_id"`
		SpanID  *SpanID `json:"span_id,omitempty"`
		fields
	}{x.TraceID, orNil(x.SpanID), fields(x)})
}

// bucketIndex maps a value to its bucket: values below histSubCount are
// exact, above the top histSubBits+1 bits select the bucket.
func bucketIndex(v int64) int {
	if v < histSubCount {
		return int(max(v, 0))
	}
	o := 64 - bits.LeadingZeros64(uint64(v)) - histSubBits // octave ≥ 1
	if o > histOctaves {
		return histBuckets - 1
	}
	return o*histSubCount + int(v>>uint(o-1)) - histSubCount
}

// bucketLow returns the smallest value mapping to bucket i.
func bucketLow(i int) int64 {
	if i < histSubCount {
		return int64(i)
	}
	return int64(histSubCount+i%histSubCount) << uint(i/histSubCount-1)
}

// bucketMid is the value a quantile landing in bucket i reports.
func bucketMid(i int) int64 {
	return bucketLow(i) + (int64(1)<<max(i/histSubCount-1, 0)-1)/2
}

// Observe records one duration; size and count families record their
// value as a Duration of that many units.
func (h *Histogram) Observe(d time.Duration) {
	if h != nil {
		h.observe(max(int64(d), 0))
	}
}

// ObserveExemplar records one duration and, when trace is non-zero,
// keeps {trace, span, value} as its octave's exemplar.
func (h *Histogram) ObserveExemplar(d time.Duration, trace TraceID, span SpanID) {
	if h == nil {
		return
	}
	v := max(int64(d), 0)
	i := h.observe(v)
	if !trace.IsZero() {
		h.exemplars[i/histSubCount].Store(&Exemplar{TraceID: trace, SpanID: span, At: time.Now(), raw: v})
	}
}

func (h *Histogram) observe(v int64) int {
	i := bucketIndex(v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	storeMax(&h.max, v)
	storeMax(&h.minInv, math.MaxInt64-v)
	return i
}

func storeMax(a *atomic.Int64, v int64) {
	for old := a.Load(); v > old && !a.CompareAndSwap(old, v); old = a.Load() {
	}
}

// observations reads how many values were recorded.
func (h *Histogram) observations() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// mean returns the exact arithmetic mean (0 when empty).
func (h *Histogram) mean() time.Duration {
	if n := h.observations(); n > 0 {
		return time.Duration(h.sum.Load() / int64(n))
	}
	return 0
}

// extremes returns the exact minimum and maximum (0, 0 when empty).
func (h *Histogram) extremes() (lo, hi int64) {
	if h.observations() == 0 {
		return 0, 0
	}
	return math.MaxInt64 - h.minInv.Load(), h.max.Load()
}

// Quantile returns the q-quantile (0 < q ≤ 1): the midpoint of the bucket
// holding its rank, clamped to the exact extremes, so within the relative
// resolution of the true value; Quantile(1) is the maximum, and an empty
// histogram returns 0. Buckets are read without a global lock.
func (h *Histogram) Quantile(q float64) time.Duration {
	n := h.observations()
	lo, hi := h.extremes()
	if n == 0 || q >= 1 {
		return time.Duration(hi)
	}
	rank, cum := max(uint64(max(q, 0)*float64(n)), 1), uint64(0)
	for i := range h.counts {
		if cum += h.counts[i].Load(); cum >= rank {
			return time.Duration(min(max(bucketMid(i), lo), hi))
		}
	}
	return time.Duration(hi)
}

// Bounds is a histogram family's rendering policy: the le bounds /metrics
// shows, ascending and in the family's unit, and Unit, the recorded units
// per exposed unit — zero for seconds recorded as durations, 1 for counts
// and bytes. A bound's cumulative count includes the log bucket it falls
// in: a value equal to a bound counts under it, and one up to 2^-6 above
// it may too.
type Bounds struct {
	Le   []float64
	Unit int64
}

// latencyBounds are the le bounds (seconds) of every latency family, from
// in-memory netsim calls (tens of microseconds) up to WAN timeouts.
var latencyBounds = Bounds{Le: []float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
}}

// BucketCount is one cumulative bucket of a rendered histogram.
type BucketCount struct {
	// Le is the inclusive upper bound as /metrics renders it; the overflow
	// bucket's is "+Inf", so JSON consumers see every bucket too.
	Le string `json:"le"`
	// Count is cumulative: observations at or below Le.
	Count uint64 `json:"count"`
	// Exemplar is the newest kept traced observation whose value lies in
	// this bucket's own (non-cumulative) range, if any.
	Exemplar *Exemplar `json:"exemplar,omitempty"`
}

// HistogramSnapshot is one rendered histogram cell. Sum and the quantiles
// are in the family's unit: seconds for every *_seconds family.
type HistogramSnapshot struct {
	// Name is the family with its label pairs, `name{k="v",…}`.
	Name    string        `json:"name"`
	Count   uint64        `json:"count"`
	Sum     float64       `json:"sum_seconds"`
	P50     float64       `json:"p50"`
	P99     float64       `json:"p99"`
	P999    float64       `json:"p99_9"`
	Buckets []BucketCount `json:"buckets"`
	// family and labels are Name's two parts, kept apart for WriteText.
	family, labels string
}

// snapshot renders one cell from its log buckets at read time.
func (e *histEntry) snapshot() HistogramSnapshot {
	h, u := e.h, cmp.Or(e.bounds.Unit, int64(time.Second))
	// scale converts to the exposed unit exactly as Duration.Seconds does.
	scale := func(v int64) float64 { return float64(v/u) + float64(v%u)/float64(u) }
	q := func(q float64) float64 { return scale(int64(h.Quantile(q))) }
	s := HistogramSnapshot{Name: e.fullName, family: e.name, labels: e.labels,
		Count: h.observations(), Sum: scale(h.sum.Load()), P50: q(0.5), P99: q(0.99), P999: q(0.999)}
	var cum uint64
	next, lo := 0, int64(-1)
	for j := 0; j <= len(e.bounds.Le); j++ {
		le, hi := "+Inf", int64(math.MaxInt64)
		if j < len(e.bounds.Le) {
			le, hi = formatNum(e.bounds.Le[j]), int64(math.Round(e.bounds.Le[j]*float64(u)))
		}
		for top := bucketIndex(hi); next <= top; next++ {
			cum += h.counts[next].Load()
		}
		b := BucketCount{Le: le, Count: cum}
		// The newest exemplar whose exact value lies in (lo, hi].
		for i := range h.exemplars {
			if x := h.exemplars[i].Load(); x != nil && x.raw > lo && x.raw <= hi && (b.Exemplar == nil || !x.At.Before(b.Exemplar.At)) {
				c := *x
				c.Value = scale(x.raw)
				b.Exemplar = &c
			}
		}
		s.Buckets = append(s.Buckets, b)
		lo = hi
	}
	return s
}

// formatNum renders a bound or a sum: integers in full (le="1048576"),
// fractions as %g does (le="5e-05").
func formatNum(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
