package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuantiles(t *testing.T) {
	v := []float64{9, 1, 5, 3, 7}
	if got := median(v); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("median of even count = %v, want 2.5", got)
	}
	if got := quantile(v, 0.25); got != 3 {
		t.Errorf("lower quartile = %v, want 3", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	if v[0] != 9 {
		t.Error("median reordered its argument")
	}
	// Quartiles 3 and 7 around a median of 5.
	if got := relSpread(v); !near(got, 0.8) {
		t.Errorf("relSpread = %v, want 0.8", got)
	}
	if got := relSpread([]float64{4}); got != 0 {
		t.Errorf("relSpread of one value = %v, want 0", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := make([]uint32, 200)
	for i := range sorted {
		sorted[i] = uint32(i + 1)
	}
	for p, want := range map[float64]float64{50: 100, 99: 198, 100: 200, 0: 1} {
		if got := percentileNs(sorted, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
}

// windowOf builds a one-caller window whose bin k holds counts[k] samples
// of latency lat[k] and cost cpu[k] ns of CPU.
func windowOf(counts []int, lat []uint32, cpu []float64) *binned {
	w := &windowSamples{}
	for k, n := range counts {
		w.binStart = append(w.binStart, len(w.ns))
		for i := 0; i < n; i++ {
			w.ns = append(w.ns, lat[k])
		}
	}
	return &binned{Bin: 0.1, Callers: []*windowSamples{w}, CPUNs: cpu}
}

func TestQuietBinsIgnoreDisturbedOnes(t *testing.T) {
	// Of 2*quietShare bins, 7 and 13 ran undisturbed (100 ops at 10 us,
	// 1 ms of CPU); the rest were slowed to various degrees.
	n := 2 * quietShare
	counts, lat, cpu := make([]int, n), make([]uint32, n), make([]float64, n)
	for k := range counts {
		counts[k], lat[k], cpu[k] = 30+k, uint32(40000-500*k), 9e6
	}
	for _, k := range []int{7, 13} {
		counts[k], lat[k], cpu[k] = 100, 10000, 1e6
	}
	b := windowOf(counts, lat, cpu)
	got := b.quiet(0, b.bins())
	if got.Samples != 200 {
		t.Fatalf("quiet bins hold %d samples, want the 200 of bins 7 and 13", got.Samples)
	}
	if !near(got.OpsPerS, 1000) { // 200 ops in 2 bins of 0.1 s
		t.Errorf("OpsPerS = %v, want 1000", got.OpsPerS)
	}
	if got.P50Ns != 10000 || got.P99Ns != 10000 {
		t.Errorf("P50Ns, P99Ns = %v, %v, want 10000 for both", got.P50Ns, got.P99Ns)
	}
	if !near(got.CPUNsPerOp, 1e4) { // 2e6 ns over 200 ops
		t.Errorf("CPUNsPerOp = %v, want 10000", got.CPUNsPerOp)
	}
	if bins := b.quietBins(0, quietShare); len(bins) != 1 || bins[0] != 7 {
		t.Errorf("quiet bins of the first half = %v, want [7]", bins)
	}
}

func TestEstimateSpreadAndStall(t *testing.T) {
	// Each of the 5 segments has quietShare bins and so a quiet share of 1.
	n := segments * quietShare
	counts, lat := make([]int, n), make([]uint32, n)
	for k := range counts {
		counts[k], lat[k] = 100, 5000
		if k >= quietShare && k < 3*quietShare {
			counts[k] = 20 // segments 1 and 2 stall
		}
	}
	b := windowOf(counts, lat, make([]float64, n))
	value, spread := b.estimate()
	if !near(value.OpsPerS, 1000) {
		t.Errorf("OpsPerS = %v, want 1000 despite the stalled second", value.OpsPerS)
	}
	if spread.OpsPerS <= 0 {
		t.Errorf("spread of OpsPerS = %v, want it to show the slow segments", spread.OpsPerS)
	}
	if spread.P50Ns != 0 {
		t.Errorf("spread of P50Ns = %v, want 0 for constant latency", spread.P50Ns)
	}
	if got, want := b.stalled(), quietShare/10; got != want {
		t.Errorf("stalled = %d, want second %d, the first of segment 1", got, want)
	}
	for k := range counts {
		counts[k] = 100
	}
	if got := windowOf(counts, lat, make([]float64, n)).stalled(); got != -1 {
		t.Errorf("stalled on an even window = %d, want -1", got)
	}
}
