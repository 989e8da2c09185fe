package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"maqs/internal/cdr"
)

func sampleSummaries(n int) []spanSummary {
	sums := make([]spanSummary, n)
	for i := range sums {
		sums[i] = spanSummary{
			SpanID:        newSpanID(),
			ParentID:      newSpanID(),
			RemoteParent:  i == 0,
			Name:          "server.dispatch",
			Operation:     "echo",
			StartUnixNano: time.Now().UnixNano(),
			DurationNano:  int64(i+1) * 1000,
		}
	}
	return sums
}

func TestTraceReturnRoundTrip(t *testing.T) {
	trace := newTraceID()
	sums := sampleSummaries(3)
	sums[1].Err = "BAD_OPERATION"
	payload := encodeTraceReturn(trace, sums, 0)
	if payload == nil {
		t.Fatal("encode returned nil for an in-budget set")
	}
	recs, err := DecodeTraceReturn(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("decoded %d spans, want 3", len(recs))
	}
	for i, rec := range recs {
		if rec.TraceID != trace {
			t.Fatalf("span %d trace %s, want %s", i, rec.TraceID, trace)
		}
		if rec.SpanID != sums[i].SpanID {
			t.Fatalf("span %d id %s, want %s", i, rec.SpanID, sums[i].SpanID)
		}
		if rec.ParentID != sums[i].ParentID {
			t.Fatalf("span %d parent %s, want %s", i, rec.ParentID, sums[i].ParentID)
		}
		if rec.Name != "server.dispatch" || rec.Operation != "echo" {
			t.Fatalf("span %d name/op = %q/%q", i, rec.Name, rec.Operation)
		}
		if rec.Duration != time.Duration(sums[i].DurationNano) {
			t.Fatalf("span %d duration %v", i, rec.Duration)
		}
		if rec.RemoteParent != (i == 0) {
			t.Fatalf("span %d remoteParent = %v", i, rec.RemoteParent)
		}
	}
	if recs[1].Err != "BAD_OPERATION" {
		t.Fatalf("span 1 err = %q", recs[1].Err)
	}
	if recs[0].Start.UnixNano() != sums[0].StartUnixNano {
		t.Fatalf("span 0 start %d, want %d", recs[0].Start.UnixNano(), sums[0].StartUnixNano)
	}
}

func TestTraceReturnBudgetTrimsTail(t *testing.T) {
	trace := newTraceID()
	sums := sampleSummaries(8)
	full := encodeTraceReturn(trace, sums, 4096)
	one := encodeTraceReturn(trace, sums[:1], 4096)
	// A budget that fits one span but not eight must trim, not fail.
	payload := encodeTraceReturn(trace, sums, len(one)+4)
	if payload == nil {
		t.Fatalf("encode returned nil with budget for one span (full %d, one %d)", len(full), len(one))
	}
	recs, err := DecodeTraceReturn(payload)
	if err != nil {
		t.Fatalf("decode trimmed payload: %v", err)
	}
	if len(recs) == 0 || len(recs) >= 8 {
		t.Fatalf("trimmed to %d spans, want 1..7", len(recs))
	}
	// A budget below any single span yields nil: the reply just carries
	// no trace-return context.
	if got := encodeTraceReturn(trace, sums, 8); got != nil {
		t.Fatalf("hopeless budget returned %d bytes, want nil", len(got))
	}
}

func TestTraceReturnDecodeRejectsGarbage(t *testing.T) {
	trace := newTraceID()
	payload := encodeTraceReturn(trace, sampleSummaries(2), 0)
	cases := map[string][]byte{
		"empty":       {},
		"bad version": append([]byte{99}, payload[1:]...),
		"truncated":   payload[:len(payload)/2],
	}
	for name, data := range cases {
		if _, err := DecodeTraceReturn(data); err == nil {
			t.Fatalf("%s: decode accepted malformed payload", name)
		}
	}
}

func TestSpanCaptureReturnPayload(t *testing.T) {
	_, tr, _ := sampledBundle(t, keepEvery, 0)
	parent := SpanContext{TraceID: newTraceID(), SpanID: newSpanID(), Sampled: true}
	root := tr.StartRemote(parent, "server.dispatch")
	root.CaptureReturn()
	child := root.Child("server.servant")
	child.End()
	if root.ReturnPayload() == nil {
		t.Fatal("payload nil before root end — child summary missing")
	}
	root.End()
	payload := root.ReturnPayload()
	if payload == nil {
		t.Fatal("payload nil after root end")
	}
	recs, err := DecodeTraceReturn(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("captured %d spans, want 2 (servant + dispatch)", len(recs))
	}
	for _, rec := range recs {
		if rec.TraceID != parent.TraceID {
			t.Fatalf("captured span in trace %s, want %s", rec.TraceID, parent.TraceID)
		}
	}
	// Unarmed spans return nothing.
	plain := tr.StartRemote(parent, "server.dispatch")
	plain.End()
	if plain.ReturnPayload() != nil {
		t.Fatal("unarmed span produced a payload")
	}
}

// encodedIDs walks an SCTraceReturn payload that DecodeTraceReturn
// accepted and returns the raw trace ID and each span's raw span and
// parent IDs, as the encoder wrote them.
func encodedIDs(t *testing.T, data []byte) (trace []byte, spans, parents [][]byte) {
	d := cdr.NewDecoder(data, cdr.BigEndian)
	must := func(err error) {
		if err != nil {
			t.Fatalf("re-reading an accepted payload: %v", err)
		}
	}
	_, err := d.ReadOctet()
	must(err)
	trace, err = d.ReadOctets()
	must(err)
	count, err := d.ReadULong()
	must(err)
	for i := uint32(0); i < count; i++ {
		span, err := d.ReadOctets()
		must(err)
		parent, err := d.ReadOctets()
		must(err)
		spans, parents = append(spans, span), append(parents, parent)
		_, err = d.ReadBool()
		must(err)
		for j := 0; j < 2; j++ {
			_, err = d.ReadString()
			must(err)
		}
		for j := 0; j < 2; j++ {
			_, err = d.ReadLongLong()
			must(err)
		}
		_, err = d.ReadString()
		must(err)
	}
	return trace, spans, parents
}

// FuzzDecodeTraceReturn: whatever a server puts in a reply's SCTraceReturn
// context either fails to decode or yields at most maxReturnSpans records
// whose IDs are the bytes on the wire, and a record whose parent is zero
// (a local root) renders no parent_id.
func FuzzDecodeTraceReturn(f *testing.F) {
	trace := newTraceID()
	sums := sampleSummaries(3)
	sums[1].Err = "BAD_OPERATION"
	sums[2].ParentID = SpanID{}
	f.Add(encodeTraceReturn(trace, sums, 0))
	f.Add(encodeTraceReturn(trace, sums[:1], 0))
	f.Add(encodeTraceReturn(trace, sampleSummaries(maxReturnSpans), 4096))
	f.Add([]byte{traceReturnVersion})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := DecodeTraceReturn(data)
		if err != nil {
			return
		}
		if len(recs) > maxReturnSpans {
			t.Fatalf("decoded %d spans, cap is %d", len(recs), maxReturnSpans)
		}
		traceRaw, spans, parents := encodedIDs(t, data)
		for i, rec := range recs {
			if !bytes.Equal(rec.TraceID[:], traceRaw) || !bytes.Equal(rec.SpanID[:], spans[i]) || !bytes.Equal(rec.ParentID[:], parents[i]) {
				t.Fatalf("span %d decoded as %s/%s/%s, encoded %x/%x/%x",
					i, rec.TraceID, rec.SpanID, rec.ParentID, traceRaw, spans[i], parents[i])
			}
			js, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			var fields map[string]any
			if err := json.Unmarshal(js, &fields); err != nil {
				t.Fatal(err)
			}
			if _, has := fields["parent_id"]; has == rec.ParentID.IsZero() {
				t.Fatalf("span %d with parent %s renders parent_id: %v", i, rec.ParentID, has)
			}
		}
	})
}
