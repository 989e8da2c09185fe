package orb

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"maqs/internal/obs"
)

// TestPeerChosenLabelsAreBounded: operation names and QoS classes come off
// the wire, so a peer inventing 10 000 of each on one connection must
// leave at most maxLabelPairs+1 telemetry cells of every kind and admission
// gates, not 10 000.
func TestPeerChosenLabelsAreBounded(t *testing.T) {
	bundle := obs.New()
	server, client, ref := dispatchWorld(t, &gateServant{gate: make(chan struct{})},
		Options{AdmissionPolicy: every(ClassPolicy{Workers: 1}), Observability: bundle})
	const n = 10000
	for i := 0; i < n; i++ {
		s := strconv.Itoa(i)
		if err := call(client, ref, "op"+s, false, qosTag("class"+s)); err == nil {
			t.Fatalf("unknown operation op%s succeeded", s)
		}
	}
	count := func(m *sync.Map) (n int) {
		m.Range(func(_, _ any) bool { n++; return true })
		return n
	}
	dispatchHists := 0
	for _, h := range bundle.Registry.Snapshot().Histograms {
		if strings.HasPrefix(h.Name, "maqs_server_dispatch_seconds{") {
			dispatchHists++
		}
	}
	ob := server.obsState.Load()
	for what, got := range map[string]int{
		"admission gates":            count(&server.gates.classes),
		"dispatch cells":             count(&ob.dimCells),
		"admission cells":            count(&ob.admitCells),
		"phase cells":                count(&ob.phaseCells),
		"dispatch histograms":        dispatchHists,
		"/trace/ops span aggregates": len(bundle.Snapshot().Operations),
	} {
		if got > maxLabelPairs+1 {
			t.Errorf("%d distinct peer labels left %d %s, want ≤ %d", n, got, what, maxLabelPairs+1)
		}
	}
}

// TestHistogramExposition pins what the log-bucketed store renders for
// two families, a seconds one and a unit-1 bounded one, against the
// fixed-bucket exposition it replaced: the same le sets, cumulative
// counts, _sum and _count. Observations sit ≥ 2 % away from every bound,
// except a 256-byte frame, which lands exactly on one and counts under it.
func TestHistogramExposition(t *testing.T) {
	r := obs.NewRegistry()
	phase := r.Histogram("maqs_phase_seconds", nil, "class", "gold", "phase", "servant")
	for _, d := range []time.Duration{30 * time.Microsecond, 70 * time.Microsecond, 300 * time.Microsecond,
		2 * time.Millisecond, 7 * time.Millisecond, 40 * time.Millisecond, 3 * time.Second, 7 * time.Second} {
		phase.Observe(d)
	}
	var frames obs.Histogram
	r.Expose("maqs_giop_frame_bytes", &frameBytesBounds, &frames)
	for _, n := range []int{256, 100, 3000, 2000000} {
		frames.Observe(time.Duration(n))
	}
	var text strings.Builder
	if err := r.Snapshot().WriteText(&text); err != nil {
		t.Fatal(err)
	}
	got := strings.Split(strings.TrimSpace(text.String()), "\n")
	sort.Strings(got)
	want := strings.Split(`maqs_giop_frame_bytes_bucket{le="+Inf"} 4
maqs_giop_frame_bytes_bucket{le="1024"} 2
maqs_giop_frame_bytes_bucket{le="1048576"} 3
maqs_giop_frame_bytes_bucket{le="16384"} 3
maqs_giop_frame_bytes_bucket{le="256"} 2
maqs_giop_frame_bytes_bucket{le="262144"} 3
maqs_giop_frame_bytes_bucket{le="4096"} 3
maqs_giop_frame_bytes_bucket{le="65536"} 3
maqs_giop_frame_bytes_count 4
maqs_giop_frame_bytes_sum 2003356
maqs_phase_seconds_bucket{class="gold",phase="servant",le="+Inf"} 8
maqs_phase_seconds_bucket{class="gold",phase="servant",le="0.0001"} 2
maqs_phase_seconds_bucket{class="gold",phase="servant",le="0.00025"} 2
maqs_phase_seconds_bucket{class="gold",phase="servant",le="0.0005"} 3
maqs_phase_seconds_bucket{class="gold",phase="servant",le="0.001"} 3
maqs_phase_seconds_bucket{class="gold",phase="servant",le="0.0025"} 4
maqs_phase_seconds_bucket{class="gold",phase="servant",le="0.005"} 4
maqs_phase_seconds_bucket{class="gold",phase="servant",le="0.01"} 5
maqs_phase_seconds_bucket{class="gold",phase="servant",le="0.025"} 5
maqs_phase_seconds_bucket{class="gold",phase="servant",le="0.05"} 6
maqs_phase_seconds_bucket{class="gold",phase="servant",le="0.1"} 6
maqs_phase_seconds_bucket{class="gold",phase="servant",le="0.25"} 6
maqs_phase_seconds_bucket{class="gold",phase="servant",le="0.5"} 6
maqs_phase_seconds_bucket{class="gold",phase="servant",le="1"} 6
maqs_phase_seconds_bucket{class="gold",phase="servant",le="2.5"} 6
maqs_phase_seconds_bucket{class="gold",phase="servant",le="5"} 7
maqs_phase_seconds_bucket{class="gold",phase="servant",le="5e-05"} 1
maqs_phase_seconds_count{class="gold",phase="servant"} 8
maqs_phase_seconds_sum{class="gold",phase="servant"} 10.0494`, "\n")
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("exposition:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestExemplarInsideItsBucket: the exemplar a bucket line shows has a
// value within that bucket's (previous bound, bound] range, even when two
// buckets share a log octave.
func TestExemplarInsideItsBucket(t *testing.T) {
	r := obs.NewRegistry()
	h := r.Histogram("maqs_client_rtt_seconds", nil)
	for i, d := range []time.Duration{40 * time.Microsecond, 950 * time.Microsecond, 1000100 * time.Nanosecond, 3 * time.Millisecond, 6 * time.Second} {
		h.ObserveExemplar(d, obs.TraceID{byte(i + 1)}, obs.SpanID{1})
	}
	prev := -1.0
	shown := 0
	for _, b := range r.Snapshot().Histograms[0].Buckets {
		le, err := strconv.ParseFloat(b.Le, 64)
		if err != nil {
			t.Fatal(err)
		}
		if x := b.Exemplar; x != nil {
			shown++
			if x.Value <= prev || x.Value > le {
				t.Errorf("le=%s shows exemplar %g outside (%g, %g]", b.Le, x.Value, prev, le)
			}
		}
		prev = le
	}
	if shown == 0 {
		t.Fatal("no exemplar rendered")
	}
}
