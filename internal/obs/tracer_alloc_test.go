package obs

import (
	"context"
	"testing"
)

// The disabled paths are contracts, not accidents: code threaded with
// tracing hooks must cost nothing when tracing is off (nil tracer, nil
// span) and nothing on a server receiving an explicitly unsampled
// traceparent. These gates pin that.

func TestTracingOffPathAllocFree(t *testing.T) {
	ctx := context.Background()
	if avg := testing.AllocsPerRun(200, func() {
		ctx2, sp := StartChild(ctx, "wire.send")
		sp.SetOperation("echo")
		sp.RecordError(nil)
		sp.End()
		_ = ctx2
	}); avg != 0 {
		t.Fatalf("StartChild without a span allocates %.1f/op, want 0", avg)
	}
	var tr *Tracer
	if avg := testing.AllocsPerRun(200, func() {
		_, sp := tr.StartSpan(ctx, "client.call")
		sp.End()
	}); avg != 0 {
		t.Fatalf("nil tracer StartSpan allocates %.1f/op, want 0", avg)
	}
}

func TestUnsampledInboundAllocFree(t *testing.T) {
	_, tr, _ := sampledBundle(t, keepEvery, 0)
	parent := SpanContext{TraceID: newTraceID(), SpanID: newSpanID(), Sampled: false}
	if avg := testing.AllocsPerRun(200, func() {
		sp := tr.StartRemote(parent, "server.dispatch")
		if sp != nil {
			t.Fatal("unsampled inbound context minted a span")
		}
		sp.SetOperation("echo")
		sp.SetAttr("peer", "127.0.0.1")
		sp.End()
	}); avg != 0 {
		t.Fatalf("unsampled inbound path allocates %.1f/op, want 0", avg)
	}
}

func BenchmarkStartChildTracingOff(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := StartChild(ctx, "wire.send")
		sp.End()
	}
}

func BenchmarkStartRemoteUnsampled(b *testing.B) {
	tr := &Tracer{sampler: newTailSampler(0, nil, keepEvery)}
	parent := SpanContext{TraceID: newTraceID(), SpanID: newSpanID(), Sampled: false}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.StartRemote(parent, "server.dispatch")
		sp.End()
	}
}
