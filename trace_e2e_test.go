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
	"maqs/internal/orb"
	"maqs/internal/resilience"
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
	// evaporate — nothing in the collector, one healthy drop counted.
	if _, err := stub.Call(ctx, "echo", nil); err != nil {
		t.Fatalf("echo: %v", err)
	}
	dropped := clientBundle.Registry.Counter(`maqs_trace_dropped_total{reason="healthy"}`)
	if got := dropped.Value(); got != 1 {
		t.Fatalf("dropped{healthy} = %d, want 1", got)
	}
	if got := clientBundle.Collector.TotalRecorded(); got != 0 {
		t.Fatalf("healthy trace leaked %d spans into the collector", got)
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

	var traceID string
	for _, rec := range clientBundle.Collector.Snapshot() {
		if rec.Name == "client.call" {
			traceID = rec.TraceID
			break
		}
	}
	if traceID == "" {
		t.Fatal("kept trace has no client.call span")
	}

	srv := httptest.NewServer(clientBundle.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/trace?trace_id=" + traceID)
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
	fut.Release()

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
	if kept(maqs.TraceKeepError)+kept(maqs.TraceKeepDeadline) == 0 {
		t.Fatal("teardown trace not kept for an error or a deadline")
	}
	found := false
	for _, rec := range bundle.Collector.Snapshot() {
		if rec.Name == "client.call" && rec.Err != "" {
			found = true
		}
	}
	if !found {
		t.Fatal("client.call span with teardown error never reached the collector")
	}
}

// TestMulticallSpanLifecycle drives a batched Multicall through the
// sampler and asserts nothing is left pending afterwards.
func TestMulticallSpanLifecycle(t *testing.T) {
	bundle := maqs.NewObservabilityWithConfig(maqs.ObservabilityConfig{
		TailSampling: &maqs.TailSamplingConfig{HealthyKeepFraction: 1},
	})
	n := maqs.NewNetwork()
	server, err := maqs.NewSystem(maqs.Options{Transport: n.Host("server")})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Shutdown()
	client, err := maqs.NewSystem(maqs.Options{Transport: n.Host("client"), Observability: bundle})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Shutdown()
	if err := server.Listen("server:7001"); err != nil {
		t.Fatal(err)
	}
	ref, err := server.Activate("svc", "IDL:test/Trace:1.0", traceServant{})
	if err != nil {
		t.Fatal(err)
	}
	stub := client.Stub(ref)
	results := stub.Multicall(context.Background(), "echo", [][]byte{nil, nil, nil})
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("multicall element %d: %v", i, res.Err)
		}
	}
	if got := bundle.Sampler.PendingCount(); got != 0 {
		t.Fatalf("multicall leaked %d pending traces", got)
	}
	if got := bundle.Collector.TotalRecorded(); got == 0 {
		t.Fatal("kept multicall trace recorded no spans")
	}
}

// TestChaosAnomalyTriggersProfile is the profiling acceptance run: a
// seeded partition chaos burst must freeze at least one anomaly-
// triggered CPU/heap capture retrievable via /profile.
func TestChaosAnomalyTriggersProfile(t *testing.T) {
	bundle := maqs.NewObservabilityWithConfig(maqs.ObservabilityConfig{
		Profiling: &maqs.ProfilingConfig{CPUDuration: 10 * time.Millisecond},
	})
	bundle.Flight.SetDumpCooldown(0)
	n := maqs.NewNetwork()
	n.Seed(7)
	server, err := maqs.NewSystem(maqs.Options{Transport: n.Host("server")})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Shutdown()
	pol := &maqs.ResiliencePolicy{
		Retry: maqs.RetryPolicy{
			MaxAttempts: 2,
			BaseDelay:   time.Millisecond,
			MaxDelay:    2 * time.Millisecond,
			Jitter:      resilience.NoJitter,
		},
		Breaker: resilience.BreakerPolicy{FailureThreshold: 3, OpenTimeout: time.Minute},
		Seed:    1,
	}
	client, err := maqs.NewSystem(maqs.Options{
		Transport:     n.Host("client"),
		Observability: bundle,
		Resilience:    pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Shutdown()
	if err := server.Listen("server:7002"); err != nil {
		t.Fatal(err)
	}
	ref, err := server.Activate("svc", "IDL:test/Trace:1.0", traceServant{})
	if err != nil {
		t.Fatal(err)
	}
	stub := client.Stub(ref)
	ctx := context.Background()
	if _, err := stub.Call(ctx, "echo", nil); err != nil {
		t.Fatalf("warm call: %v", err)
	}
	// Seeded chaos: partition the pair, exhaust retries until the breaker
	// opens — a watched anomaly kind that must trigger a capture.
	n.Partition("client", "server")
	for i := 0; i < 6; i++ {
		if _, err := stub.Call(ctx, "echo", nil); err == nil {
			t.Fatal("call through partition succeeded")
		}
	}
	bundle.Profiler.Flush()

	srv := httptest.NewServer(bundle.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/profile")
	if err != nil {
		t.Fatal(err)
	}
	var index struct {
		Enabled  bool                         `json:"enabled"`
		Captures []maqs.ProfileCaptureSummary `json:"captures"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&index); err != nil {
		t.Fatalf("/profile JSON: %v", err)
	}
	resp.Body.Close()
	if !index.Enabled || len(index.Captures) == 0 {
		t.Fatalf("chaos produced no anomaly-triggered profile captures: /profile index %+v", index)
	}
	for _, kind := range []string{"cpu", "heap"} {
		resp, err := http.Get(srv.URL + "/profile?id=" + index.Captures[0].ID + "&kind=" + kind)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(body) == 0 {
			t.Fatalf("/profile %s download: %d (%d bytes)", kind, resp.StatusCode, len(body))
		}
	}
}
