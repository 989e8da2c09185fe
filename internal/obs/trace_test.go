package obs

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: newTraceID(), SpanID: newSpanID(), Sampled: true}
	tp := sc.Traceparent()
	if len(tp) != traceparentLen {
		t.Fatalf("traceparent length = %d, want %d", len(tp), traceparentLen)
	}
	got, ok := ParseTraceparent(tp)
	if !ok {
		t.Fatalf("ParseTraceparent rejected %q", tp)
	}
	if got != sc {
		t.Fatalf("round trip: got %+v, want %+v", got, sc)
	}

	unsampled := SpanContext{TraceID: sc.TraceID, SpanID: sc.SpanID, Sampled: false}
	got, ok = ParseTraceparent(unsampled.Traceparent())
	if !ok || got.Sampled {
		t.Fatalf("unsampled round trip: got %+v ok=%v", got, ok)
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	valid := string(SpanContext{TraceID: newTraceID(), SpanID: newSpanID()}.Traceparent())
	bad := []string{
		"",
		"00",
		valid[:len(valid)-1], // truncated
		"00-00000000000000000000000000000000-" + valid[36:], // zero trace id
		valid[:3] + "zz" + valid[5:],                        // non-hex
		"ff" + valid[2:],                                    // forbidden version
		valid + "x",                                         // trailing junk without separator
	}
	for _, in := range bad {
		if _, ok := ParseTraceparent([]byte(in)); ok {
			t.Fatalf("ParseTraceparent accepted %q", in)
		}
	}
	// Forward compat: a longer payload with a dash separator is accepted.
	if _, ok := ParseTraceparent([]byte(valid + "-extra")); !ok {
		t.Fatal("ParseTraceparent rejected versioned extension")
	}
}

func TestSpanParentChildLinkage(t *testing.T) {
	_, tr, s := sampledBundle(t, keepEvery, 16)

	ctx, root := tr.StartSpan(context.Background(), "client.call")
	root.SetOperation("echo")
	ctx, mid := StartChild(ctx, "client.mediator")
	_, leaf := StartChild(ctx, "wire.send")
	leaf.RecordError(errors.New("boom"))
	leaf.End()
	mid.End()
	root.End()

	spans := s.spans()
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(spans))
	}
	byName := map[string]SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	rootRec, midRec, leafRec := byName["client.call"], byName["client.mediator"], byName["wire.send"]
	if !rootRec.ParentID.IsZero() {
		t.Fatalf("root has parent %s", rootRec.ParentID)
	}
	if midRec.ParentID != rootRec.SpanID || leafRec.ParentID != midRec.SpanID {
		t.Fatalf("broken linkage: %+v / %+v / %+v", rootRec, midRec, leafRec)
	}
	if rootRec.TraceID != midRec.TraceID || midRec.TraceID != leafRec.TraceID {
		t.Fatal("spans do not share a trace ID")
	}
	if leafRec.Err != "boom" {
		t.Fatalf("leaf error = %q", leafRec.Err)
	}
	if rootRec.Operation != "echo" {
		t.Fatalf("root operation = %q", rootRec.Operation)
	}
}

func TestStartRemoteLinksAcrossProcesses(t *testing.T) {
	_, clientTr, _ := sampledBundle(t, keepEvery, 4)
	_, serverTr, server := sampledBundle(t, keepEvery, 4)

	_, wire := clientTr.StartSpan(context.Background(), "wire.send")
	carried, ok := ParseTraceparent(wire.Context().Traceparent())
	if !ok {
		t.Fatal("injection does not parse")
	}
	srv := serverTr.StartRemote(carried, "server.dispatch")
	srv.End()
	wire.End()

	srvRec := server.spans()[0]
	if srvRec.TraceID != wire.Context().TraceID {
		t.Fatal("server span lost the trace ID")
	}
	if srvRec.ParentID != wire.Context().SpanID || !srvRec.RemoteParent {
		t.Fatalf("server span parent = %s remote=%v", srvRec.ParentID, srvRec.RemoteParent)
	}

	// An invalid carried context still yields a fresh server-side trace.
	orphan := serverTr.StartRemote(SpanContext{}, "server.dispatch")
	if orphan == nil || !orphan.Context().Valid() {
		t.Fatal("StartRemote with invalid parent did not mint a trace")
	}
}

func TestNilTracerAndSpanFastPath(t *testing.T) {
	var tr *Tracer
	ctx, sp := tr.StartSpan(context.Background(), "x")
	if sp != nil {
		t.Fatal("nil tracer minted a span")
	}
	if SpanFromContext(ctx) != nil {
		t.Fatal("nil tracer polluted the context")
	}
	// All span methods tolerate nil receivers.
	sp.SetOperation("op")
	sp.SetAttr("k", "v")
	sp.AddEvent("e")
	sp.RecordError(errors.New("x"))
	if c := sp.Child("y"); c != nil {
		t.Fatal("nil span minted a child")
	}
	sp.End()
	if _, child := StartChild(context.Background(), "z"); child != nil {
		t.Fatal("StartChild without a parent minted a span")
	}
}

func TestSpanEventsAndDoubleEnd(t *testing.T) {
	_, tr, s := sampledBundle(t, keepEvery, 4)
	_, sp := tr.StartSpan(context.Background(), "qos.negotiate")
	sp.AddEvent("contract.established", Attr{Key: "epoch", Value: "0"})
	time.Sleep(time.Millisecond)
	sp.End()
	sp.End() // second End must not double-record
	spans := s.spans()
	if len(spans) != 1 {
		t.Fatalf("recorded %d spans, want 1", len(spans))
	}
	rec := spans[0]
	if len(rec.Events) != 1 || rec.Events[0].Name != "contract.established" {
		t.Fatalf("events = %+v", rec.Events)
	}
	if rec.Duration < time.Millisecond {
		t.Fatalf("duration = %v, want >= 1ms", rec.Duration)
	}
}
