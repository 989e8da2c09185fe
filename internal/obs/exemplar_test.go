package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestHistogramObserveExemplar(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("maqs_ex_seconds", &Bounds{Le: []float64{0.01, 0.1, 1}})

	traceA, traceB, spanB := TraceID{0xa}, TraceID{0xb}, SpanID{0xb}
	h.ObserveExemplar(5*time.Millisecond, traceA, SpanID{0xa})
	h.ObserveExemplar(500*time.Millisecond, traceB, spanB)
	h.ObserveExemplar(50*time.Millisecond, TraceID{}, SpanID{}) // untraced: plain observe

	snap := r.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("histograms = %d", len(snap.Histograms))
	}
	bs := snap.Histograms[0].Buckets
	if bs[0].Exemplar == nil || bs[0].Exemplar.TraceID != traceA {
		t.Fatalf("bucket 0 exemplar = %+v", bs[0].Exemplar)
	}
	if bs[2].Exemplar == nil || bs[2].Exemplar.TraceID != traceB || bs[2].Exemplar.SpanID != spanB {
		t.Fatalf("bucket 2 exemplar = %+v", bs[2].Exemplar)
	}
	if v := bs[2].Exemplar.Value; v != 0.5 {
		t.Fatalf("exemplar value = %g, want 0.5", v)
	}
	// The untraced 50ms observation counted but left no exemplar.
	if bs[1].Exemplar != nil {
		t.Fatalf("untraced bucket kept exemplar %+v", bs[1].Exemplar)
	}
	if snap.Histograms[0].Count != 3 {
		t.Fatalf("count = %d", snap.Histograms[0].Count)
	}
}

func TestHistogramExemplarLatestWins(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("maqs_ex2_seconds", &Bounds{Le: []float64{1}})
	h.ObserveExemplar(100*time.Millisecond, TraceID{0x01}, SpanID{})
	h.ObserveExemplar(200*time.Millisecond, TraceID{0x02}, SpanID{})
	bs := r.Snapshot().Histograms[0].Buckets
	if bs[0].Exemplar.TraceID != (TraceID{0x02}) {
		t.Fatalf("exemplar = %+v, want latest", bs[0].Exemplar)
	}
}

func TestExemplarTextRendering(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("maqs_ex_seconds", &Bounds{Le: []float64{0.1}}, "op", "echo")
	h.ObserveExemplar(50*time.Millisecond, TraceID{0x01, 0x23, 0xab, 0xcd}, SpanID{0xff})

	var buf bytes.Buffer
	if err := r.Snapshot().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	want := `maqs_ex_seconds_bucket{op="echo",le="0.1"} 1 # {trace_id="0123abcd000000000000000000000000",span_id="ff00000000000000"} 0.05`
	if !strings.Contains(out, want) {
		t.Fatalf("text exposition missing exemplar trailer:\n%s", out)
	}
	// Buckets without exemplars render exactly as before.
	if !strings.Contains(out, "maqs_ex_seconds_bucket{op=\"echo\",le=\"+Inf\"} 1\n") {
		t.Fatalf("+Inf bucket line changed:\n%s", out)
	}
}

func TestHistogramSnapshotJSONInfBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("maqs_inf_seconds", &Bounds{Le: []float64{0.5}})
	h.Observe(100 * time.Millisecond)
	h.Observe(10 * time.Second) // lands in the +Inf overflow bucket

	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	// JSON consumers must see the overflow bucket with a meaningful
	// bound, not the internal sentinel value.
	if !strings.Contains(string(data), `"le":"+Inf"`) {
		t.Fatalf(`JSON missing "le":"+Inf": %s`, data)
	}
	if strings.Contains(string(data), "4611686018427387904") {
		t.Fatalf("internal sentinel leaked into JSON: %s", data)
	}

	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	bs := snap.Histograms[0].Buckets
	if len(bs) != 2 || bs[1].Le != "+Inf" || bs[1].Count != 2 {
		t.Fatalf("round-tripped buckets = %+v", bs)
	}
	// Totals are computable from JSON: cumulative overflow count equals
	// the histogram count.
	if bs[len(bs)-1].Count != snap.Histograms[0].Count {
		t.Fatalf("overflow cumulative %d != count %d", bs[len(bs)-1].Count, snap.Histograms[0].Count)
	}
}

func TestBucketCountJSONRoundTripFinite(t *testing.T) {
	in := BucketCount{Le: "0.25", Count: 9}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"le":"0.25","count":9}` {
		t.Fatalf("marshal = %s", data)
	}
	var out BucketCount
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip %+v != %+v", out, in)
	}
}
