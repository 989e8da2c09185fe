package main

import (
	"math"
	"sort"
)

// median returns the middle of v (mean of the two middle values for an
// even count); 0 for an empty slice. v is not modified.
func median(v []float64) float64 {
	return quantile(v, 0.5)
}

// quantile returns the q-quantile of v by linear interpolation between
// order statistics (the "inclusive" method); 0 for an empty slice.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// relSpread is the distance between the first and third quartile of v as
// a share of its median: the run-to-run noise measure the comparator and
// the benchmark's bounds are stated in. 0 when the median is 0.
func relSpread(v []float64) float64 {
	m := median(v)
	if m == 0 || len(v) < 2 {
		return 0
	}
	return (quantile(v, 0.75) - quantile(v, 0.25)) / math.Abs(m)
}

// percentileNs returns the p-th percentile (0..100) of sorted latency
// samples using the nearest-rank method, so a reported tail is always a
// latency that was actually observed.
func percentileNs(sorted []uint32, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return float64(sorted[rank-1])
}

// windowSamples is one caller's latency samples in completion order with
// the index at which each bin of the window begins.
type windowSamples struct {
	ns []uint32
	// binStart[k] is the index of the first sample completed in bin k;
	// len(binStart) is the number of bins.
	binStart []int
}

// bin returns the samples completed in bin k.
func (w *windowSamples) bin(k int) []uint32 {
	end := len(w.ns)
	if k+1 < len(w.binStart) {
		end = w.binStart[k+1]
	}
	return w.ns[w.binStart[k]:end]
}

// binned is a measured window cut into short bins: per bin, every
// caller's samples and the CPU time both processes used.
type binned struct {
	Bin     float64 // bin length in seconds
	Callers []*windowSamples
	// CPUNs[k] is the client's plus the server's CPU time in bin k.
	CPUNs []float64
}

func (b *binned) bins() int { return len(b.CPUNs) }

// count is the number of ops completed in bin k over all callers.
func (b *binned) count(k int) int {
	n := 0
	for _, c := range b.Callers {
		n += len(c.bin(k))
	}
	return n
}

// timing is what the quiet bins of a window say about speed.
type timing struct {
	OpsPerS    float64
	P50Ns      float64
	P99Ns      float64
	CPUNsPerOp float64
	// Samples is the number of op latencies behind P50Ns and P99Ns.
	Samples int
}

// quietShare is the share of a window's bins the time-based metrics are
// computed over.
const quietShare = 20 // the quietest twentieth

// quiet estimates the time-based metrics over bins lo..hi-1 from the
// twentieth of them that completed the most ops. On a shared machine
// interference only ever slows a bin down, so the busiest bins are the
// undisturbed ones; estimating from them keeps a neighbour's burst out of
// the result where a mean or median over the whole window lets it in.
func (b *binned) quiet(lo, hi int) timing {
	order := b.quietBins(lo, hi)
	var t timing
	var samples []uint32
	var cpu float64
	for _, k := range order {
		for _, c := range b.Callers {
			samples = append(samples, c.bin(k)...)
		}
		cpu += b.CPUNs[k]
	}
	if len(samples) == 0 {
		return t
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	t.Samples = len(samples)
	t.OpsPerS = float64(len(samples)) / (float64(len(order)) * b.Bin)
	t.P50Ns = percentileNs(samples, 50)
	t.P99Ns = percentileNs(samples, 99)
	t.CPUNsPerOp = cpu / float64(len(samples))
	return t
}

// whole estimates the time-based metrics over the whole window.
func (b *binned) whole() timing { return b.quiet(0, b.bins()) }

// quietBins returns the twentieth of bins lo..hi-1 that completed the
// most ops.
func (b *binned) quietBins(lo, hi int) []int {
	order := make([]int, 0, hi-lo)
	for k := lo; k < hi; k++ {
		order = append(order, k)
	}
	sort.SliceStable(order, func(i, j int) bool { return b.count(order[i]) > b.count(order[j]) })
	return order[:max(1, len(order)/quietShare)]
}

// segments is how many consecutive parts a window is cut into to estimate
// how far the quiet-bin estimators move from one stretch to the next.
const segments = 5

// estimate returns the window's timing and, per metric, the relative
// quartile distance of the same estimator applied to each of the window's
// segments: the spread the comparator calls a change unresolved within.
func (b *binned) estimate() (t timing, spread timing) {
	t = b.whole()
	var rate, p50, p99, cpu []float64
	for i := 0; i < segments; i++ {
		lo, hi := i*b.bins()/segments, (i+1)*b.bins()/segments
		if hi-lo < quietShare {
			return t, timing{}
		}
		part := b.quiet(lo, hi)
		rate, p50 = append(rate, part.OpsPerS), append(p50, part.P50Ns)
		p99, cpu = append(p99, part.P99Ns), append(cpu, part.CPUNsPerOp)
	}
	return t, timing{OpsPerS: relSpread(rate), P50Ns: relSpread(p50), P99Ns: relSpread(p99), CPUNsPerOp: relSpread(cpu)}
}

// stalled reports the first second-long stretch of bins that completed
// fewer than half the ops of the median stretch, or -1.
func (b *binned) stalled() int {
	per := int(1/b.Bin + 0.5)
	if per < 1 || b.bins() < 2*per {
		return -1
	}
	var counts []float64
	for lo := 0; lo+per <= b.bins(); lo += per {
		n := 0
		for k := lo; k < lo+per; k++ {
			n += b.count(k)
		}
		counts = append(counts, float64(n))
	}
	mid := median(counts)
	for i, n := range counts {
		if n < mid/2 {
			return i
		}
	}
	return -1
}
