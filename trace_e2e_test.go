package maqs_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"maqs"
	"maqs/internal/obs"
	"maqs/internal/orb"
)

// traceServant echoes on "echo" and fails on "boom".
type traceServant struct{}

func (traceServant) Invoke(req *maqs.ServerRequest) error {
	switch req.Operation {
	case "echo":
		req.Out.WriteString("ok")
		return nil
	case "boom":
		return orb.NewSystemException(orb.ExcBadOperation, 1, "boom requested")
	default:
		return orb.NewSystemException(orb.ExcBadOperation, 1, "no op %q", req.Operation)
	}
}

// tailSampledBundle builds an observability bundle with tail sampling at
// the given healthy-keep fraction.
func tailSampledBundle(keep float64) *maqs.Observability {
	return maqs.NewObservabilityWithConfig(maqs.ObservabilityConfig{
		TailSampling: &maqs.TailSamplingConfig{HealthyKeepFraction: keep},
	})
}

// TestTraceEndToEndAcrossLoopback is the tracing acceptance run: over a
// real loopback TCP connection, an errored call must yield ONE coherent
// trace tree on the client — client.call, wire.send and the
// server-returned server.dispatch span — retrievable via
// /trace?trace_id=, while a healthy call under a 0%% healthy-keep policy
// is dropped with the healthy drop counter incremented.
func TestTraceEndToEndAcrossLoopback(t *testing.T) {
	serverBundle := tailSampledBundle(0)
	clientBundle := tailSampledBundle(0)
	server, err := maqs.NewSystem(maqs.Options{Observability: serverBundle})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Shutdown()
	if err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ref, err := server.Activate("svc", "IDL:test/Trace:1.0", traceServant{})
	if err != nil {
		t.Fatal(err)
	}
	client, err := maqs.NewSystem(maqs.Options{Observability: clientBundle})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Shutdown()
	stub := client.Stub(ref)
	ctx := context.Background()

	// Healthy call: with HealthyKeepFraction 0 the whole trace must
	// evaporate — nothing kept, one healthy drop counted.
	if _, err := stub.Call(ctx, "echo", nil); err != nil {
		t.Fatalf("echo: %v", err)
	}
	dropped := clientBundle.Registry.Counter(`maqs_trace_dropped_total{reason="healthy"}`)
	if got := dropped.Value(); got != 1 {
		t.Fatalf("dropped{healthy} = %d, want 1", got)
	}
	if got := len(clientBundle.Snapshot().Spans); got != 0 {
		t.Fatalf("healthy trace leaked %d spans into /trace", got)
	}

	// Errored call: always kept, and the reply's SCTraceReturn grafts the
	// server's dispatch span into the client-side tree.
	if _, err := stub.Call(ctx, "boom", nil); err == nil {
		t.Fatal("boom succeeded")
	}
	kept := clientBundle.Registry.Counter(`maqs_trace_kept_total{reason="error"}`)
	if got := kept.Value(); got != 1 {
		t.Fatalf("kept{error} = %d, want 1", got)
	}

	var root maqs.SpanRecord
	for _, rec := range clientBundle.Snapshot().Spans {
		if rec.Name == "client.call" {
			root = rec
			break
		}
	}
	traceID := root.TraceID
	if traceID.IsZero() {
		t.Fatal("kept trace has no client.call span")
	}

	srv := httptest.NewServer(clientBundle.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/trace?trace_id=" + traceID.String())
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/trace?trace_id=: %d %v", resp.StatusCode, err)
	}
	var spans []maqs.SpanRecord
	if err := json.Unmarshal(body, &spans); err != nil {
		t.Fatalf("/trace JSON: %v", err)
	}
	byName := map[string]maqs.SpanRecord{}
	for _, sp := range spans {
		if sp.TraceID != traceID {
			t.Fatalf("span %s from foreign trace %s", sp.Name, sp.TraceID)
		}
		byName[sp.Name] = sp
	}
	call, okCall := byName["client.call"]
	wire, okWire := byName["wire.send"]
	dispatch, okDispatch := byName["server.dispatch"]
	if !okCall || !okWire || !okDispatch {
		t.Fatalf("trace tree incomplete, have %d spans: %v", len(spans), names(spans))
	}
	// One coherent tree: wire.send under client.call, and the
	// server-returned dispatch span under wire.send.
	if wire.ParentID != call.SpanID {
		t.Fatalf("wire.send parent %s, want client.call %s", wire.ParentID, call.SpanID)
	}
	if dispatch.ParentID != wire.SpanID {
		t.Fatalf("server.dispatch parent %s, want wire.send %s", dispatch.ParentID, wire.SpanID)
	}
	if !dispatch.RemoteParent {
		t.Fatal("server.dispatch lost its remote-parent mark in transit")
	}
	if dispatch.Operation != "boom" {
		t.Fatalf("server.dispatch operation %q", dispatch.Operation)
	}
}

func names(spans []maqs.SpanRecord) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = sp.Name
	}
	return out
}

// slowServant signals request arrival and holds replies until released,
// so futures deterministically outlive teardown.
type slowServant struct {
	entered chan struct{}
	release chan struct{}
}

func (s *slowServant) Invoke(req *maqs.ServerRequest) error {
	select {
	case s.entered <- struct{}{}:
	default:
	}
	<-s.release
	req.Out.WriteString("late")
	return nil
}

// TestAsyncSpanLifecycleAfterTeardown pins the async contract the tail
// sampler depends on: a CallAsync future resolving only at connection
// teardown must still end its client.call span exactly once, the span
// must reach the sampler, and the pending table must not leak.
func TestAsyncSpanLifecycleAfterTeardown(t *testing.T) {
	bundle := tailSampledBundle(0)
	n := maqs.NewNetwork()
	server, err := maqs.NewSystem(maqs.Options{Transport: n.Host("server")})
	if err != nil {
		t.Fatal(err)
	}
	// Registered before the servant-release defer: by the time the server
	// drains, the blocked dispatch goroutine has been let go.
	defer server.Shutdown()
	client, err := maqs.NewSystem(maqs.Options{Transport: n.Host("client"), Observability: bundle})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Shutdown()
	if err := server.Listen("server:7000"); err != nil {
		t.Fatal(err)
	}
	servant := &slowServant{entered: make(chan struct{}, 1), release: make(chan struct{})}
	defer close(servant.release)
	ref, err := server.Activate("slow", "IDL:test/Slow:1.0", servant)
	if err != nil {
		t.Fatal(err)
	}
	stub := client.Stub(ref)

	fut, err := stub.CallAsync(context.Background(), "hang", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the request is inside the servant (so the future is
	// genuinely in flight with its reply held open), then tear the client
	// side down under it: closing the connection must complete the future
	// with the teardown failure, not a reply. The server side stays up —
	// its dispatch goroutine is still parked in the servant.
	select {
	case <-servant.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached the servant")
	}
	client.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := fut.Wait(ctx); err == nil {
		t.Fatal("future resolved successfully across teardown")
	}

	// The span ended through onDone exactly once and the sampler decided
	// the trace (kept: it carries the teardown error).
	deadline := time.Now().Add(5 * time.Second)
	for bundle.Sampler.PendingCount() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := bundle.Sampler.PendingCount(); got != 0 {
		t.Fatalf("pending table leaked %d entries after teardown", got)
	}
	kept := func(reason string) uint64 {
		return bundle.Registry.Counter(`maqs_trace_kept_total{reason="` + reason + `"}`).Value()
	}
	if kept(obs.KeepError)+kept(obs.KeepDeadline) == 0 {
		t.Fatal("teardown trace not kept for an error or a deadline")
	}
	found := false
	for _, rec := range bundle.Snapshot().Spans {
		if rec.Name == "client.call" && rec.Err != "" {
			found = true
		}
	}
	if !found {
		t.Fatal("client.call span with teardown error never reached /trace")
	}
}
