package orb

import (
	"fmt"
	"testing"

	"maqs/internal/obs"
)

// phaseHist fetches one maqs_phase_seconds cell from a snapshot.
func phaseHist(snap obs.Snapshot, class, phase string) (obs.HistogramSnapshot, bool) {
	name := fmt.Sprintf("maqs_phase_seconds{class=%q,phase=%q}", class, phase)
	for _, h := range snap.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return obs.HistogramSnapshot{}, false
}

// TestPhaseDecompositionBounded drives tagged calls through a bounded
// class's admission gate with observability on both sides and asserts every
// pipeline phase produced a labeled histogram: encode on the client,
// queue_wait / dispatch / servant / reply_wire on the server.
func TestPhaseDecompositionBounded(t *testing.T) {
	servant := &gateServant{gate: make(chan struct{})}
	serverObs := obs.New()
	server, client, ref := dispatchWorld(t, servant, Options{
		AdmissionPolicy: every(ClassPolicy{Workers: 2, QueueDepth: 64}), Observability: serverObs,
	})
	_ = server
	clientObs := obs.New()
	client.setObservability(clientObs)

	const calls = 8
	for i := 0; i < calls; i++ {
		if err := call(client, ref, "echo", false, qosTag("gold")); err != nil {
			t.Fatalf("echo: %v", err)
		}
	}

	ssnap := serverObs.Registry.Snapshot()
	for _, phase := range []string{"queue_wait", "dispatch", "servant", "reply_wire"} {
		h, ok := phaseHist(ssnap, "gold", phase)
		if !ok {
			t.Fatalf("server missing phase histogram %q; have %v", phase, histNames(ssnap))
		}
		if h.Count != calls {
			t.Errorf("server phase %q count = %d, want %d", phase, h.Count, calls)
		}
	}

	// The client binds no characteristic, so encode lands on class "none".
	csnap := clientObs.Registry.Snapshot()
	h, ok := phaseHist(csnap, "none", "encode")
	if !ok {
		t.Fatalf("client missing encode phase histogram; have %v", histNames(csnap))
	}
	if h.Count != calls {
		t.Errorf("client encode count = %d, want %d", h.Count, calls)
	}
}

// TestPhaseDecompositionUnbounded checks the goroutine-per-request path:
// no queue means no queue_wait cell, but dispatch/servant/reply_wire
// still decompose.
func TestPhaseDecompositionUnbounded(t *testing.T) {
	servant := &gateServant{gate: make(chan struct{})}
	serverObs := obs.New()
	server, client, ref := dispatchWorld(t, servant, Options{Observability: serverObs})
	_ = server

	if err := call(client, ref, "echo", false, nil); err != nil {
		t.Fatalf("echo: %v", err)
	}
	snap := serverObs.Registry.Snapshot()
	for _, phase := range []string{"dispatch", "servant", "reply_wire"} {
		h, ok := phaseHist(snap, "none", phase)
		if !ok || h.Count != 1 {
			t.Errorf("phase %q: ok=%v count=%d, want 1 observation", phase, ok, h.Count)
		}
	}
	if h, ok := phaseHist(snap, "none", "queue_wait"); ok && h.Count != 0 {
		t.Errorf("unbounded path recorded queue_wait: %+v", h)
	}
}

// TestPhaseFlightRecordEncode asserts the client flight record carries
// the encode phase stamp.
func TestPhaseFlightRecordEncode(t *testing.T) {
	servant := &gateServant{gate: make(chan struct{})}
	server, client, ref := dispatchWorld(t, servant, Options{})
	_ = server
	bundle := obs.New()
	client.setObservability(bundle)

	if err := call(client, ref, "echo", false, nil); err != nil {
		t.Fatalf("echo: %v", err)
	}
	recs := bundle.Flight.Records(0)
	if len(recs) == 0 {
		t.Fatal("no flight records")
	}
	last := recs[len(recs)-1]
	if last.Phases == nil || last.Phases.EncodeNs <= 0 {
		t.Fatalf("flight record missing encode phase: %+v", last.Phases)
	}
	if last.Phases.ServantNs != 0 || last.Phases.QueueWaitNs != 0 {
		t.Fatalf("client record carries server phases: %+v", last.Phases)
	}
}

func histNames(s obs.Snapshot) []string {
	names := make([]string, 0, len(s.Histograms))
	for _, h := range s.Histograms {
		names = append(names, h.Name)
	}
	return names
}
