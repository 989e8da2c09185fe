package obs

import (
	"bytes"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

// Trace and span IDs stay binary in memory and become hex only where JSON
// or text is written. TestExportGolden pins what that writing produces for
// fixed records — /trace, its ?trace= filter, /trace/ops, /flight and the
// /metrics exemplar trailer — byte for byte against testdata/export.golden,
// which the string-ID implementation wrote for the same records: zero IDs
// stay omitted, and an ID that is not lowercase hex matches nothing.

var (
	goldTraceA   = TraceID{0x4b, 0xf9, 0x2f, 0x35, 0x77, 0xb3, 0x4d, 0xa6, 0xa3, 0xce, 0x92, 0x9d, 0x0e, 0x0e, 0x47, 0x36}
	goldTraceB   = TraceID{0x0a, 0xf7, 0x65, 0x19, 0x16, 0xcd, 0x43, 0xdd, 0x84, 0x48, 0xeb, 0x21, 0x1c, 0x80, 0x31, 0x9c}
	goldRoot     = SpanID{0x00, 0xf0, 0x67, 0xaa, 0x0b, 0xa9, 0x02, 0xb7}
	goldWire     = SpanID{0xb7, 0xad, 0x6b, 0x71, 0x69, 0x20, 0x33, 0x31}
	goldDispatch = SpanID{0x53, 0x99, 0x5c, 0x3f, 0x42, 0xcd, 0x8a, 0xd8}
	goldOther    = SpanID{0xe4, 0x57, 0xb5, 0xa2, 0xe4, 0xd8, 0x6b, 0xd1}
	goldNoSpan   = SpanID{}
	goldAt       = time.Date(2024, 3, 1, 12, 0, 0, 0, time.UTC)
)

// goldenSpans are the kept spans, in the order a shared client and
// server bundle ends them: server first, the client root last.
func goldenSpans() []SpanRecord {
	return []SpanRecord{
		{TraceID: goldTraceB, SpanID: goldOther, Name: "qos.negotiate", Start: goldAt.Add(-time.Second), Duration: time.Millisecond,
			Events: []Event{{Name: "contract.established", At: goldAt.Add(-time.Second / 2), Attrs: []Attr{{Key: "epoch", Value: "0"}}}}},
		{TraceID: goldTraceA, SpanID: goldDispatch, ParentID: goldWire, RemoteParent: true, Name: "server.dispatch", Operation: "echo",
			Start: goldAt.Add(200 * time.Microsecond), Duration: 400 * time.Microsecond, Err: "BAD_OPERATION"},
		{TraceID: goldTraceA, SpanID: goldWire, ParentID: goldRoot, Name: "wire.send", Operation: "echo",
			Start: goldAt.Add(100 * time.Microsecond), Duration: 700 * time.Microsecond,
			Events: []Event{{Name: "retry.attempt", At: goldAt.Add(150 * time.Microsecond)}}},
		{TraceID: goldTraceA, SpanID: goldRoot, Name: "client.call", Operation: "echo", Start: goldAt, Duration: 900 * time.Microsecond,
			Attrs: []Attr{{Key: "characteristic", Value: "Null"}}},
	}
}

// goldenFlight are flight records with and without trace linkage.
func goldenFlight() []FlightRecord {
	return []FlightRecord{
		{TraceID: goldTraceA, SpanID: goldRoot, Operation: "echo", Binding: "Null", Endpoint: "server:1", Stripe: 0,
			Attempts: 2, BreakerState: "closed", DeadlineBudget: time.Second, Outcome: "ok", Latency: 900 * time.Microsecond,
			Phases: &PhaseTimings{EncodeNs: 1200}, At: goldAt.Add(time.Millisecond)},
		{Operation: "(breaker)", Endpoint: "server:1", Stripe: -1, Outcome: "TRANSIENT", Anomaly: AnomalyBreakerOpen, At: goldAt.Add(2 * time.Millisecond)},
		{TraceID: goldTraceB, Operation: "ping", Stripe: 1, Attempts: 1, Outcome: "deadline-exceeded", Latency: time.Second, At: goldAt.Add(3 * time.Millisecond)},
	}
}

// goldenBundle is a bundle holding goldenSpans and goldenFlight.
func goldenBundle() *Observability {
	o := New()
	o.Sampler.keep(goldenSpans()...)
	for _, r := range goldenFlight() {
		o.Flight.Record(r)
	}
	return o
}

// goldenExemplars renders the /metrics lines that carry an exemplar
// trailer: one exemplar with a span ID, one with a trace ID only.
func goldenExemplars(t *testing.T) string {
	reg := NewRegistry()
	h := reg.Histogram("maqs_client_rtt_seconds", nil, "class", "Null")
	h.ObserveExemplar(900*time.Microsecond, goldTraceA, goldRoot)
	h.ObserveExemplar(time.Second, goldTraceB, goldNoSpan)
	for i := range h.exemplars {
		if x := h.exemplars[i].Load(); x != nil {
			x.At = goldAt
		}
	}
	var buf bytes.Buffer
	if err := reg.Snapshot().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for _, line := range strings.SplitAfter(buf.String(), "\n") {
		if strings.Contains(line, " # {") {
			out.WriteString(line)
		}
	}
	return out.String()
}

// renderExport writes every golden section of the export.
func renderExport(t *testing.T) string {
	var out strings.Builder
	section := func(name, body string) { out.WriteString("== " + name + "\n" + body) }
	get := func(o *Observability, path string) {
		rec := httptest.NewRecorder()
		o.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		section(path, rec.Body.String())
	}
	o := goldenBundle()
	for _, path := range []string{
		"/trace",
		"/trace?limit=2",
		"/trace?trace=4bf92f3577b34da6a3ce929d0e0e4736",
		"/trace?trace_id=0af7651916cd43dd8448eb211c80319c",
		"/trace?trace=4BF92F3577B34DA6A3CE929D0E0E4736",
		"/trace?trace=not-hex",
		"/trace?trace=4bf92f3577b34da6",
		"/trace/ops",
		"/flight",
		"/flight?limit=1",
	} {
		get(o, path)
	}
	get(New(), "/trace?trace=not-hex")
	section("/metrics exemplar trailers", goldenExemplars(t))
	return out.String()
}

func TestExportGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/export.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := renderExport(t); got != string(want) {
		t.Fatalf("export differs from testdata/export.golden:\n%s", got)
	}
}
