package qos

import (
	"context"
	"errors"
	"testing"
	"time"

	"maqs/internal/obs"
	"maqs/internal/resilience"
)

func levelProposal(level float64) *Proposal {
	return &Proposal{
		Characteristic: "Tracing",
		Params:         []ParamProposal{{Name: "level", Desired: Number(level)}},
	}
}

func negotiateLevel(t *testing.T, w *qosWorld, level float64) {
	t.Helper()
	if _, err := w.stub.Negotiate(context.Background(), levelProposal(level)); err != nil {
		t.Fatal(err)
	}
}

// waitForLevel polls until the degrader reaches want (async renegotiation).
func waitForLevel(t *testing.T, d *Degrader, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if d.Level() == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("degrader stuck at level %d, want %d", d.Level(), want)
}

func TestDegradeStepsDownLadderAndRecovers(t *testing.T) {
	w, bundle := newObservedWorld(t, 0)
	negotiateLevel(t, w, 9)

	d := NewDegrader(w.stub,
		DegradeStep{Name: "half-tracing", Proposal: levelProposal(4)},
		DegradeStep{Name: "tracing-off", Proposal: levelProposal(0)},
	)
	c, err := d.Degrade(context.Background(), "test")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Number("level", -1); got != 4 {
		t.Fatalf("degraded level = %g, want 4", got)
	}
	if d.Level() != 1 {
		t.Fatalf("Level() = %d, want 1", d.Level())
	}
	if got := w.stub.Binding().Contract.Number("level", -1); got != 4 {
		t.Fatalf("binding contract level = %g, want 4", got)
	}

	if _, err := d.Degrade(context.Background(), "test"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Degrade(context.Background(), "test"); !errors.Is(err, ErrLadderExhausted) {
		t.Fatalf("err = %v, want ErrLadderExhausted", err)
	}

	// Recover climbs back: step 1, then the captured baseline (level 9).
	if _, err := d.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	c, err = d.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Number("level", -1); got != 9 {
		t.Fatalf("recovered level = %g, want baseline 9", got)
	}
	if d.Level() != 0 {
		t.Fatalf("Level() after full recovery = %d, want 0", d.Level())
	}

	records := bundle.Collector.Snapshot()
	sp, ok := spanByName(records, "qos.degrade")
	if !ok {
		t.Fatal("no qos.degrade span collected")
	}
	var sawEvent bool
	for _, ev := range sp.Events {
		if ev.Name == "qos.degrade" {
			sawEvent = true
		}
	}
	if !sawEvent {
		t.Fatal("qos.degrade span has no qos.degrade event")
	}
	if _, ok := spanByName(records, "qos.recover"); !ok {
		t.Fatal("no qos.recover span collected")
	}
	if n := bundle.Registry.Counter("maqs_qos_degradations_total").Value(); n != 2 {
		t.Fatalf("maqs_qos_degradations_total = %d, want 2", n)
	}
	if n := bundle.Registry.Counter("maqs_qos_recoveries_total").Value(); n != 2 {
		t.Fatalf("maqs_qos_recoveries_total = %d, want 2", n)
	}
}

func TestMonitorRuleTriggersAutomaticDegradation(t *testing.T) {
	w, bundle := newObservedWorld(t, 0)
	negotiateLevel(t, w, 9)

	d := NewDegrader(w.stub, DegradeStep{Name: "tracing-off", Proposal: levelProposal(0)})
	d.SetCooldown(0)
	mon := NewMonitor(8)
	w.stub.AddObserver(mon.Observe)
	w.stub.AddObserver(d.WatchMonitor(mon, Rule{
		Name:     "error-rate",
		Violated: func(s Stats) bool { return s.Window >= 4 && s.ErrorRate > 0.5 },
	}))

	// Sustained violation: every call errors server-side.
	for i := 0; i < 8; i++ {
		_, err := w.stub.Call(context.Background(), "boom", nil)
		if err == nil {
			t.Fatal("boom should fail")
		}
	}
	waitForLevel(t, d, 1)

	if got := w.stub.Binding().Contract.Number("level", -1); got != 0 {
		t.Fatalf("auto-degraded contract level = %g, want 0", got)
	}
	// The automatic renegotiation is observable in the span collector. The
	// degrading goroutine bumps the level before it ends its span, so the
	// span may still be on its way.
	var sp obs.SpanRecord
	for deadline, ok := time.Now().Add(5*time.Second), false; !ok; time.Sleep(time.Millisecond) {
		if sp, ok = spanByName(bundle.Collector.Snapshot(), "qos.degrade"); !ok && time.Now().After(deadline) {
			t.Fatal("no qos.degrade span collected after automatic degradation")
		}
	}
	var reason string
	for _, a := range sp.Attrs {
		if a.Key == "reason" {
			reason = a.Value
		}
	}
	if reason != "rule:error-rate" {
		t.Fatalf("qos.degrade reason = %q, want rule:error-rate", reason)
	}
	if _, ok := spanByName(bundle.Collector.Snapshot(), "qos.renegotiate"); !ok {
		t.Fatal("automatic degradation did not renegotiate")
	}
	// ContractChanged reached the mediator.
	w.mediator.mu.Lock()
	contracts := len(w.mediator.contracts)
	w.mediator.mu.Unlock()
	if contracts == 0 {
		t.Fatal("mediator saw no ContractChanged")
	}
}

func TestBreakerTransitionsTriggerPendingDegradation(t *testing.T) {
	w, _ := newObservedWorld(t, 0)
	negotiateLevel(t, w, 9)

	d := NewDegrader(w.stub, DegradeStep{Name: "tracing-off", Proposal: levelProposal(0)})
	d.SetCooldown(0)
	g := resilience.NewGroup(resilience.BreakerPolicy{
		FailureThreshold: 1, OpenTimeout: time.Millisecond, HalfOpenProbes: 1,
	})
	d.WatchBreakers(g)

	b := g.Get("server:7300")
	b.Record(false) // Closed → Open: degradation becomes pending
	if d.Level() != 0 {
		t.Fatal("degraded while the endpoint was still unreachable")
	}
	time.Sleep(5 * time.Millisecond)
	if !b.Allow() { // Open → HalfOpen
		t.Fatal("probe not admitted")
	}
	b.Record(true) // HalfOpen → Closed: pending degradation runs
	waitForLevel(t, d, 1)

	if got := w.stub.Binding().Contract.Number("level", -1); got != 0 {
		t.Fatalf("contract level after breaker recovery = %g, want 0", got)
	}
}
