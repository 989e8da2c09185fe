package giop

import (
	"bytes"
	"context"
	"testing"

	"maqs/internal/cdr"
	"maqs/internal/obs"
)

// traceRequestHeader builds a request header tagged with the given span's
// traceparent the way orb's wire layer does.
func traceRequestHeader(sc obs.SpanContext) *RequestHeader {
	return &RequestHeader{
		Contexts:         ServiceContextList(nil).With(SCTrace, sc.Traceparent()),
		RequestID:        7,
		ResponseExpected: true,
		ObjectKey:        []byte("demo"),
		Operation:        "fetch",
	}
}

func testSpanContext(t *testing.T) obs.SpanContext {
	t.Helper()
	tracer := obs.NewTracer(obs.NewCollector(16))
	_, span := tracer.StartSpan(context.Background(), "wire.send")
	sc := span.Context()
	span.End()
	if !sc.Valid() {
		t.Fatalf("invalid span context %+v", sc)
	}
	return sc
}

func TestTraceContextRoundTrip(t *testing.T) {
	for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
		sc := testSpanContext(t)
		e := cdr.NewEncoder(order)
		traceRequestHeader(sc).Marshal(e)
		e.WriteOctets([]byte("args"))

		var buf bytes.Buffer
		if err := WriteMessage(&buf, MsgRequest, order, e.Bytes()); err != nil {
			t.Fatal(err)
		}
		msg, err := ReadMessage(&buf)
		if err != nil {
			t.Fatal(err)
		}
		h, err := UnmarshalRequestHeader(msg.Decoder())
		if err != nil {
			t.Fatal(err)
		}
		data, ok := h.Contexts.Get(SCTrace)
		if !ok {
			t.Fatal("SCTrace context lost in transit")
		}
		got, ok := obs.ParseTraceparent(data)
		if !ok {
			t.Fatalf("unparseable traceparent %q", data)
		}
		if got != sc {
			t.Fatalf("round trip changed context: got %+v want %+v", got, sc)
		}
	}
}

func TestTraceContextSurvivesFragmentation(t *testing.T) {
	sc := testSpanContext(t)
	e := cdr.NewEncoder(cdr.BigEndian)
	traceRequestHeader(sc).Marshal(e)
	// A payload big enough to force many fragments even with the header.
	e.WriteOctets(bytes.Repeat([]byte{0xAB}, 4096))

	for _, maxFrag := range []int{16, 61, 256, 1024} {
		var buf bytes.Buffer
		if err := writeMessageFragmented(&buf, MsgRequest, cdr.BigEndian, e.Bytes(), maxFrag); err != nil {
			t.Fatalf("maxFrag %d: %v", maxFrag, err)
		}
		msg, err := readMessageReassembled(&buf)
		if err != nil {
			t.Fatalf("maxFrag %d: %v", maxFrag, err)
		}
		h, err := UnmarshalRequestHeader(msg.Decoder())
		if err != nil {
			t.Fatalf("maxFrag %d: %v", maxFrag, err)
		}
		data, ok := h.Contexts.Get(SCTrace)
		if !ok {
			t.Fatalf("maxFrag %d: SCTrace context lost", maxFrag)
		}
		got, ok := obs.ParseTraceparent(data)
		if !ok || got != sc {
			t.Fatalf("maxFrag %d: got %+v (ok=%v) want %+v", maxFrag, got, ok, sc)
		}
	}
}

// A foreign context with the same vendor prefix must not be mistaken for
// trace data, and SCTrace must coexist with the QoS tag on one request.
func TestTraceContextCoexistsWithQoSTag(t *testing.T) {
	sc := testSpanContext(t)
	h := traceRequestHeader(sc)
	h.Contexts = h.Contexts.With(SCQoS, []byte("characteristic-tag"))

	e := cdr.NewEncoder(cdr.LittleEndian)
	h.Marshal(e)
	var buf bytes.Buffer
	if err := WriteMessage(&buf, MsgRequest, cdr.LittleEndian, e.Bytes()); err != nil {
		t.Fatal(err)
	}
	msg, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalRequestHeader(msg.Decoder())
	if err != nil {
		t.Fatal(err)
	}
	if qos, ok := got.Contexts.Get(SCQoS); !ok || string(qos) != "characteristic-tag" {
		t.Fatalf("QoS tag lost: %q ok=%v", qos, ok)
	}
	trace, ok := got.Contexts.Get(SCTrace)
	if !ok {
		t.Fatal("SCTrace lost")
	}
	if parsed, ok := obs.ParseTraceparent(trace); !ok || parsed != sc {
		t.Fatalf("trace context corrupted: %+v ok=%v", parsed, ok)
	}
	if _, ok := obs.ParseTraceparent([]byte("characteristic-tag")); ok {
		t.Fatal("non-traceparent payload parsed as trace context")
	}
}
