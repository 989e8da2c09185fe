package qos

import (
	"context"
	"testing"

	"maqs/internal/netsim"
	"maqs/internal/obs"
	"maqs/internal/orb"
)

// newObservedWorld is newQoSWorld with one observability bundle shared by
// client and server ORB, so the bundle keeps complete traces of a
// client→server invocation.
func newObservedWorld(t *testing.T, capacity int) (*qosWorld, *obs.Observability) {
	t.Helper()
	bundle := obs.New()
	n := netsim.NewNetwork()
	server := orb.New(orb.Options{Transport: n.Host("server"), Observability: bundle})
	if err := server.Listen("server:7300"); err != nil {
		t.Fatal(err)
	}
	servant := &counterServant{}
	impl := newTracingImpl(capacity)
	skel := NewServerSkeleton(servant)
	if err := skel.AddQoS(impl); err != nil {
		t.Fatal(err)
	}
	ref, err := server.Adapter().Activate("counter", "IDL:test/Counter:1.0", skel)
	if err != nil {
		t.Fatal(err)
	}

	client := orb.New(orb.Options{Transport: n.Host("client"), Observability: bundle})
	registry := NewRegistry()
	mediator := &recordingMediator{BaseMediator: BaseMediator{Char: "Tracing"}}
	err = registry.Register(
		&Characteristic{Name: "Tracing"},
		func(st *Stub, b *Binding) (Mediator, error) { return mediator, nil },
	)
	if err != nil {
		t.Fatal(err)
	}
	stub := NewStubWithRegistry(client, ref, registry)
	t.Cleanup(func() {
		client.Shutdown()
		server.Shutdown()
	})
	return &qosWorld{
		net: n, server: server, client: client, servant: servant,
		impl: impl, skel: skel, stub: stub, mediator: mediator, registry: registry,
	}, bundle
}

// spanByName finds the first span with the given stage name in records.
func spanByName(records []obs.SpanRecord, name string) (obs.SpanRecord, bool) {
	for _, r := range records {
		if r.Name == name {
			return r, true
		}
	}
	return obs.SpanRecord{}, false
}

func TestInvocationProducesLinkedTrace(t *testing.T) {
	w, bundle := newObservedWorld(t, 4)
	if _, err := w.stub.Negotiate(context.Background(), &Proposal{Characteristic: "Tracing"}); err != nil {
		t.Fatal(err)
	}
	before := len(bundle.Snapshot().Spans)
	w.inc(t)

	spans := bundle.Snapshot().Spans[before:]
	if len(spans) < 5 {
		t.Fatalf("only %d spans recorded: %+v", len(spans), spans)
	}
	root, ok := spanByName(spans, "client.call")
	if !ok {
		t.Fatalf("no client.call span in %+v", spans)
	}
	if !root.ParentID.IsZero() {
		t.Fatalf("client.call is not a root: parent %s", root.ParentID)
	}
	if root.Operation != "inc" {
		t.Fatalf("client.call operation = %q", root.Operation)
	}

	// Every stage of the one invocation shares the root's trace ID.
	var trace []obs.SpanRecord
	stages := map[string]obs.SpanRecord{}
	for _, s := range spans {
		if s.TraceID == root.TraceID {
			trace = append(trace, s)
			stages[s.Name] = s
		}
	}
	for _, want := range []string{
		"client.call", "client.mediator", "wire.send",
		"server.dispatch", "server.prolog", "server.servant", "server.epilog",
	} {
		if _, ok := stages[want]; !ok {
			t.Fatalf("stage %q missing from trace (got %v)", want, names(trace))
		}
	}

	// Parent/child linkage: call → mediator → wire.send, and the server
	// dispatch hangs off wire.send through the propagated SCTrace context.
	if got := stages["client.mediator"].ParentID; got != root.SpanID {
		t.Fatalf("client.mediator parent = %s, want %s", got, root.SpanID)
	}
	if got := stages["wire.send"].ParentID; got != stages["client.mediator"].SpanID {
		t.Fatalf("wire.send parent = %s, want %s", got, stages["client.mediator"].SpanID)
	}
	dispatch := stages["server.dispatch"]
	if !dispatch.RemoteParent {
		t.Fatal("server.dispatch should mark its parent as remote")
	}
	if dispatch.ParentID != stages["wire.send"].SpanID {
		t.Fatalf("server.dispatch parent = %s, want wire.send %s", dispatch.ParentID, stages["wire.send"].SpanID)
	}
	for _, stage := range []string{"server.prolog", "server.servant", "server.epilog"} {
		if got := stages[stage].ParentID; got != dispatch.SpanID {
			t.Fatalf("%s parent = %s, want server.dispatch %s", stage, got, dispatch.SpanID)
		}
	}
}

func names(records []obs.SpanRecord) []string {
	out := make([]string, len(records))
	for i, r := range records {
		out[i] = r.Name
	}
	return out
}

func TestObservedWorldMetrics(t *testing.T) {
	w, bundle := newObservedWorld(t, 4)
	w.stub.AddObserver(MetricsObserver(bundle.Registry))
	if _, err := w.stub.Negotiate(context.Background(), &Proposal{Characteristic: "Tracing"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		w.inc(t)
	}
	if _, err := w.stub.Call(context.Background(), "boom", nil); err == nil {
		t.Fatal("boom should fail")
	}
	if err := w.stub.Release(context.Background()); err != nil {
		t.Fatal(err)
	}

	snap := bundle.Registry.Snapshot()
	for name, min := range map[string]uint64{
		"maqs_server_requests_total": 4,
		"maqs_client_requests_total": 4,
		"maqs_client_errors_total":   1,
		"maqs_server_errors_total":   1,
		"maqs_negotiations_total":    1,
		"maqs_releases_total":        1,
	} {
		if got := snap.Counters[name]; got < min {
			t.Fatalf("%s = %d, want >= %d (all: %v)", name, got, min, snap.Counters)
		}
	}
	if got := snap.Gauges["maqs_client_bindings"]; got != 0 {
		t.Fatalf("maqs_client_bindings = %d after release", got)
	}
	var rtt *obs.HistogramSnapshot
	for i := range snap.Histograms {
		if snap.Histograms[i].Name == "maqs_client_rtt_seconds" {
			rtt = &snap.Histograms[i]
		}
	}
	if rtt == nil || rtt.Count < 4 {
		t.Fatalf("rtt histogram missing or short: %+v", rtt)
	}
}

func TestStubObserverFanOut(t *testing.T) {
	// The stack maqs.System.Stub attaches on an observable system —
	// metrics, then the SLO engine — must keep counting after probes are
	// stacked on top of it.
	w, bundle := newObservedWorld(t, 4)
	w.stub.AddObserver(MetricsObserver(bundle.Registry))
	w.stub.AddObserver(NewSLOEngine(bundle.Registry, bundle.Flight).ObserverForStub(w.stub))
	negotiateLevel(t, w, 3)

	var probed []Observation
	w.stub.AddObserver(func(o Observation) { probed = append(probed, o) })
	for i := 0; i < 3; i++ {
		w.inc(t)
	}
	if len(probed) != 3 {
		t.Fatalf("fan-out: probe saw %d, want 3", len(probed))
	}
	snap := bundle.Registry.Snapshot()
	if got := snap.Counters["maqs_client_requests_total"]; got != 3 {
		t.Errorf("maqs_client_requests_total = %d, want 3", got)
	}
	if got := snap.Counters[`maqs_slo_good_total{class="Tracing",objective="errors"}`]; got != 3 {
		t.Errorf("SLO errors good = %d, want 3 (all: %v)", got, snap.Counters)
	}
}

func TestNegotiationLifecycleEvents(t *testing.T) {
	w, bundle := newObservedWorld(t, 4)
	ctx := context.Background()
	if _, err := w.stub.Negotiate(ctx, &Proposal{Characteristic: "Tracing"}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.stub.Renegotiate(ctx, &Proposal{
		Characteristic: "Tracing",
		Params:         []ParamProposal{{Name: "level", Desired: Number(3)}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.stub.Release(ctx); err != nil {
		t.Fatal(err)
	}
	spans := bundle.Snapshot().Spans
	for spanName, eventName := range map[string]string{
		"qos.negotiate":   "contract.established",
		"qos.renegotiate": "contract.renegotiated",
	} {
		sp, ok := spanByName(spans, spanName)
		if !ok {
			t.Fatalf("no %s span (got %v)", spanName, names(spans))
		}
		found := false
		for _, ev := range sp.Events {
			if ev.Name == eventName {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s span lacks %s event: %+v", spanName, eventName, sp.Events)
		}
	}
	if _, ok := spanByName(spans, "qos.release"); !ok {
		t.Fatalf("no qos.release span (got %v)", names(spans))
	}
	// The server-side skeleton annotates its dispatch span with lifecycle
	// events as well.
	foundServerEvent := false
	for _, sp := range spans {
		if sp.Name != "server.dispatch" {
			continue
		}
		for _, ev := range sp.Events {
			if ev.Name == "qos.negotiate" || ev.Name == "qos.renegotiate" || ev.Name == "qos.release" {
				foundServerEvent = true
			}
		}
	}
	if !foundServerEvent {
		t.Fatal("no server-side qos lifecycle event recorded")
	}
}
