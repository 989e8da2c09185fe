package qos

import (
	"context"
	"errors"
	"fmt"
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

// waitForLevel polls until the degrader is at want with no automatic
// step in flight (async renegotiation): a step that has landed has also
// ended its span and bumped its counters.
func waitForLevel(t *testing.T, d *Degrader, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if d.Level() == want && !d.inflight.Load() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("degrader stuck at level %d, want %d", d.Level(), want)
}

// tracingPlan is a Fallback over one Tracing leaf per level, in order.
func tracingPlan(levels ...float64) *Node {
	leaves := make([]*Node, len(levels))
	for i, level := range levels {
		leaves[i] = NewLeaf(fmt.Sprintf("level-%g", level), float64(len(levels)-i), levelProposal(level))
	}
	return NewFallback("tracing", leaves...)
}

// negotiatePlan binds the plan over levels on w's stub and returns its
// Degrader with the cooldown off.
func negotiatePlan(t *testing.T, w *qosWorld, levels ...float64) *Degrader {
	t.Helper()
	d, err := w.stub.NegotiatePlan(context.Background(), tracingPlan(levels...))
	if err != nil {
		t.Fatal(err)
	}
	d.cooldown = 0
	return d
}

// sloWorld binds the plan over levels on an observed world and stacks
// what WatchSLO is built for on its stub: a test engine's observer, then
// the plan's Degrader's.
func sloWorld(t *testing.T, levels ...float64) (*qosWorld, *obs.Observability, *Degrader) {
	w, bundle := newObservedWorld(t, 0)
	d := negotiatePlan(t, w, levels...)
	e, _ := newTestSLOEngine(bundle.Registry, bundle.Flight)
	w.stub.AddObserver(e.ObserverForStub(w.stub))
	w.stub.AddObserver(d.WatchSLO(e))
	return w, bundle, d
}

// callUntil calls op until d reaches level (at most n calls), waits for
// the step to land and returns how many calls failed. A call waits out a
// step in flight, so the calls are not spent before a refused step can be
// retried.
func callUntil(t *testing.T, w *qosWorld, d *Degrader, op string, level, n int) (failed int) {
	t.Helper()
	for i := 0; i < n && d.Level() < level; i++ {
		for d.inflight.Load() {
			time.Sleep(100 * time.Microsecond)
		}
		if _, err := w.stub.Call(context.Background(), op, nil); err != nil {
			failed++
		}
	}
	waitForLevel(t, d, level)
	return failed
}

// degradeReasons lists the reason of every qos.degrade span collected.
func degradeReasons(bundle *obs.Observability) (reasons []string) {
	for _, sp := range bundle.Snapshot().Spans {
		for _, a := range sp.Attrs {
			if sp.Name == "qos.degrade" && a.Key == "reason" {
				reasons = append(reasons, a.Value)
			}
		}
	}
	return reasons
}

func TestDegradeStepsDownLadderAndRecovers(t *testing.T) {
	w, bundle := newObservedWorld(t, 0)
	d := negotiatePlan(t, w, 9, 4, 0)
	c, err := d.Degrade(context.Background(), "test")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Number("level", -1); got != 4 {
		t.Fatalf("degraded level = %g, want 4", got)
	}
	if d.Level() != 1 || d.Rung() != "level-4" {
		t.Fatalf("Level(), Rung() = %d, %q, want 1, level-4", d.Level(), d.Rung())
	}
	if got := w.stub.Binding().Contract.Number("level", -1); got != 4 {
		t.Fatalf("binding contract level = %g, want 4", got)
	}

	if _, err := d.Degrade(context.Background(), "test"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Degrade(context.Background(), "test"); !errors.Is(err, errLadderExhausted) {
		t.Fatalf("err = %v, want errLadderExhausted", err)
	}

	// A manual renegotiation in between does not move the top of the
	// ladder: Recover climbs back to level 4, then to the plan's first
	// candidate (level 9), and no further.
	if _, err := w.stub.Renegotiate(context.Background(), levelProposal(7)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	c, err = d.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Number("level", -1); got != 9 {
		t.Fatalf("recovered level = %g, want the first candidate's 9", got)
	}
	if d.Level() != 0 {
		t.Fatalf("Level() after full recovery = %d, want 0", d.Level())
	}
	if _, err := d.Recover(context.Background()); err == nil {
		t.Fatal("Recover above the first bound candidate succeeded")
	}

	records := bundle.Snapshot().Spans
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

func TestSLOBurnTriggersAutomaticDegradation(t *testing.T) {
	w, bundle, d := sloWorld(t, 9, 0)
	// Sustained violation: every call errors server-side, so the errors
	// objective burns once the fast window holds its 10 samples.
	if failed := callUntil(t, w, d, "boom", 1, 100); failed < sloMinSamples {
		t.Fatalf("degraded after %d failed calls, want at least %d", failed, sloMinSamples)
	}
	if got := w.stub.Binding().Contract.Number("level", -1); got != 0 {
		t.Fatalf("auto-degraded contract level = %g, want 0", got)
	}
	if reasons := degradeReasons(bundle); len(reasons) != 1 || reasons[0] != "slo-burn:Tracing/errors" {
		t.Fatalf("qos.degrade reasons = %q, want [slo-burn:Tracing/errors]", reasons)
	}
	if _, ok := spanByName(bundle.Snapshot().Spans, "qos.renegotiate"); !ok {
		t.Fatal("automatic degradation did not renegotiate")
	}
	w.mediator.mu.Lock()
	defer w.mediator.mu.Unlock()
	if len(w.mediator.contracts) == 0 {
		t.Fatal("mediator saw no ContractChanged")
	}
}

func TestSLOBurnWalksTheLadderDown(t *testing.T) {
	w, bundle, d := sloWorld(t, 9, 4, 0)
	// Trouble persists on every rung: each new contract starts a new
	// budget, burns it, and the next rung follows.
	callUntil(t, w, d, "boom", 2, 200)
	if reasons := degradeReasons(bundle); len(reasons) != 2 || reasons[0] != "slo-burn:Tracing/errors" || reasons[1] != reasons[0] {
		t.Fatalf("qos.degrade reasons = %q, want slo-burn:Tracing/errors twice", reasons)
	}
}

func TestSLOBurnDoesNotOverDegrade(t *testing.T) {
	w, _, d := sloWorld(t, 9, 0, 4)
	w.impl.mu.Lock()
	w.impl.failFrom = 5
	w.impl.mu.Unlock()
	callUntil(t, w, d, "inc", 1, 100)
	// The first rung fixed the problem. Without a new budget the old
	// contract's failures would keep the class burning for the whole fast
	// window and take the second rung too.
	for i := 0; i < 40; i++ {
		w.inc(t)
	}
	waitForLevel(t, d, 1)
}

func TestSLOBurnRetriesAFailedStep(t *testing.T) {
	w, bundle, d := sloWorld(t, 9, 0)
	w.impl.mu.Lock()
	w.impl.vetoNext = true // the server refuses the first renegotiation
	w.impl.mu.Unlock()
	callUntil(t, w, d, "boom", 1, 200)
	if n := bundle.Registry.Counter("maqs_qos_degradation_failures_total").Value(); n != 1 {
		t.Fatalf("maqs_qos_degradation_failures_total = %d, want 1 refused step", n)
	}
}

func TestSLOWatchStepsOncePerCooldown(t *testing.T) {
	w, _, d := sloWorld(t, 9, 4, 0)
	d.cooldown = time.Hour
	callUntil(t, w, d, "boom", 1, 100)
	// The new contract burns too, but the cooldown holds the next rung.
	for i := 0; i < 40; i++ {
		_, _ = w.stub.Call(context.Background(), "boom", nil)
	}
	waitForLevel(t, d, 1)
}

func TestBreakerTransitionsTriggerPendingDegradation(t *testing.T) {
	w, _ := newObservedWorld(t, 0)
	d := negotiatePlan(t, w, 9, 0)
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
