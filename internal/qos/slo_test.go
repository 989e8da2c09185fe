package qos

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"maqs/internal/obs"
)

// sloClock is a fake second source shared by the engine and its window
// counters so burn-rate arithmetic is deterministic.
type sloClock struct{ sec atomic.Int64 }

func (c *sloClock) now() time.Time  { return time.Unix(c.sec.Load(), 0) }
func (c *sloClock) unix() int64     { return c.sec.Load() }
func (c *sloClock) advance(s int64) { c.sec.Add(s) }

// newTestSLOEngine builds an engine on the fake clock with per-call
// evaluation (no throttle).
func newTestSLOEngine(reg *obs.Registry, fr *obs.FlightRecorder) (*SLOEngine, *sloClock) {
	clk := &sloClock{}
	clk.sec.Store(1_000_000)
	e := NewSLOEngine(reg, fr)
	e.evalEvery = 0
	e.now = clk.now
	e.newWindow = func() *obs.WindowCounter {
		w := obs.NewWindowCounter(sloBudgetWindow)
		w.SetClock(clk.unix)
		return w
	}
	return e, clk
}

func observeN(e *SLOEngine, class string, n int, err error) {
	o := Observation{Operation: "echo", Err: err}
	for i := 0; i < n; i++ {
		e.Observe(class, o)
	}
}

func TestSLOEngineDerivesObjectivesFromContract(t *testing.T) {
	e, _ := newTestSLOEngine(obs.NewRegistry(), nil)
	c := &Contract{Characteristic: "gold", Values: map[string]Value{
		ContractMaxRTTMs:     Number(150),
		ContractSLOTarget:    Number(0.95),
		ContractMaxErrorRate: Number(0.02),
	}}
	e.setObjectivesFromContract("gold", c)

	st := e.Status()
	if len(st.Classes) != 1 || st.Classes[0].Class != "gold" {
		t.Fatalf("Status classes = %+v, want one class gold", st.Classes)
	}
	objs := map[string]SLOObjectiveStatus{}
	for _, o := range st.Classes[0].Objectives {
		objs[o.Objective] = o
	}
	lat, ok := objs["latency"]
	if !ok {
		t.Fatalf("no latency objective derived: %+v", objs)
	}
	if lat.MaxRTTMs != 150 || lat.Target != 0.95 {
		t.Errorf("latency objective = %+v, want max_rtt_ms 150 target 0.95", lat)
	}
	errObj, ok := objs["errors"]
	if !ok {
		t.Fatalf("no errors objective derived: %+v", objs)
	}
	if got := errObj.Target; got != 0.98 {
		t.Errorf("errors target = %g, want 0.98 (1 - max_error_rate)", got)
	}
}

func TestSLOEngineContractWithoutLatencyBound(t *testing.T) {
	e, _ := newTestSLOEngine(obs.NewRegistry(), nil)
	e.setObjectivesFromContract("bronze", &Contract{Characteristic: "bronze", Values: map[string]Value{}})
	st := e.Status()
	if len(st.Classes) != 1 || len(st.Classes[0].Objectives) != 1 {
		t.Fatalf("Status = %+v, want exactly the errors objective", st)
	}
	if o := st.Classes[0].Objectives[0]; o.Objective != "errors" || o.Target != defaultSLOTarget {
		t.Fatalf("objective = %+v, want errors at default target", o)
	}
}

func TestSLOEngineLatencyObjectiveScoresRTT(t *testing.T) {
	reg := obs.NewRegistry()
	e, _ := newTestSLOEngine(reg, nil)
	e.setObjective("gold", Objective{Name: "latency", Target: 0.99, MaxRTT: 100 * time.Millisecond})

	e.Observe("gold", Observation{RTT: 20 * time.Millisecond})
	e.Observe("gold", Observation{RTT: 250 * time.Millisecond}) // over bound
	e.Observe("gold", Observation{RTT: 10 * time.Millisecond, Err: errors.New("boom")})

	snap := reg.Snapshot()
	if got := snap.Counters[`maqs_slo_good_total{class="gold",objective="latency"}`]; got != 1 {
		t.Errorf("good = %d, want 1", got)
	}
	if got := snap.Counters[`maqs_slo_bad_total{class="gold",objective="latency"}`]; got != 2 {
		t.Errorf("bad = %d, want 2 (slow + errored)", got)
	}
}

// boundStub fabricates a stub bound to class "compression" under a
// contract carrying the given max_rtt_ms (0 = no bound; nil contract
// when negative).
func boundStub(maxRTTMs float64) *Stub {
	s := &Stub{}
	if maxRTTMs < 0 {
		s.binding = &Binding{Characteristic: "compression"}
		return s
	}
	values := map[string]Value{}
	if maxRTTMs > 0 {
		values[ContractMaxRTTMs] = Number(maxRTTMs)
	}
	s.binding = &Binding{
		Characteristic: "compression",
		Contract:       &Contract{Characteristic: "compression", Values: values},
	}
	return s
}

func TestSLOEngineScoresContractRTTBound(t *testing.T) {
	reg := obs.NewRegistry()
	fr := obs.NewFlightRecorder(16, 4, 4)
	fr.SetDumpCooldown(0)
	e, _ := newTestSLOEngine(reg, fr)
	observe := e.ObserverForStub(boundStub(10)) // 10ms bound

	observe(Observation{Operation: "fetch", RTT: 4 * time.Millisecond})
	observe(Observation{Operation: "fetch", RTT: 10 * time.Millisecond}) // at the bound: good
	observe(Observation{Operation: "fetch", RTT: 25 * time.Millisecond})
	// A failed call inside the bound is latency-bad, but not a violation
	// of the bound: it freezes no qos-violation dump.
	observe(Observation{Operation: "fetch", RTT: 5 * time.Millisecond, Err: errors.New("boom")})

	snap := reg.Snapshot()
	if got := snap.Counters[`maqs_slo_good_total{class="compression",objective="latency"}`]; got != 2 {
		t.Errorf("latency good = %d, want 2", got)
	}
	if got := snap.Counters[`maqs_slo_bad_total{class="compression",objective="latency"}`]; got != 2 {
		t.Errorf("latency bad = %d, want 2 (over bound + errored)", got)
	}
	dumps := fr.Dumps()
	if len(dumps) != 1 || dumps[0].Kind != obs.AnomalyQoSViolation {
		t.Fatalf("dumps = %+v, want one qos-violation", dumps)
	}
	d, _ := fr.Dump(dumps[0].ID)
	if d.Trigger.Operation != "fetch" || d.Trigger.Latency != 25*time.Millisecond || d.Trigger.Stripe != -1 {
		t.Errorf("trigger = %+v", d.Trigger)
	}
	if d.Trigger.Binding != "compression" || d.Trigger.Outcome != "rtt-over-contract" {
		t.Errorf("trigger forensic fields = %+v", d.Trigger)
	}
}

func TestSLOEngineSkipsCallsWithoutRTTBound(t *testing.T) {
	reg := obs.NewRegistry()
	fr := obs.NewFlightRecorder(16, 4, 4)
	e, _ := newTestSLOEngine(reg, fr)
	for _, s := range []*Stub{{}, boundStub(-1), boundStub(0)} {
		e.ObserverForStub(s)(Observation{Operation: "fetch", RTT: time.Hour})
	}
	for name, v := range reg.Snapshot().Counters {
		if strings.Contains(name, `objective="latency"`) {
			t.Errorf("%s = %d: latency scored without a bound", name, v)
		}
	}
	if dumps := fr.Dumps(); len(dumps) != 0 {
		t.Errorf("dumps = %+v, want none", dumps)
	}
	// A nil recorder must be fine on a violation.
	nilFR, _ := newTestSLOEngine(reg, nil)
	nilFR.ObserverForStub(boundStub(1))(Observation{Operation: "fetch", RTT: time.Hour})
}

// state reads one objective's alert state.
func state(e *SLOEngine, class, objective string) string {
	return sloState(e.classFor(class).byName(objective).state.Load()).String()
}

func TestSLOEngineBurnStateMachine(t *testing.T) {
	reg := obs.NewRegistry()
	fr := obs.NewFlightRecorder(64, 8, 8)
	e, clk := newTestSLOEngine(reg, fr)
	e.setObjective("gold", Objective{Name: "errors", Target: 0.99})

	// 20 straight failures: burn = (bad/total)/budget = 1/0.01 = 100 on
	// both windows, far over critical.
	observeN(e, "gold", 20, errors.New("boom"))

	if got := state(e, "gold", "errors"); got != "burning" {
		t.Fatalf("state = %s, want burning", got)
	}
	st := e.Status().Classes[0].Objectives[0]
	if st.FastBurn < criticalBurnRate || st.SlowBurn < criticalBurnRate {
		t.Fatalf("burn rates %g/%g below critical", st.FastBurn, st.SlowBurn)
	}
	// Entering burning froze exactly one slo-burn dump, not one per call.
	if dumps := fr.Dumps(); len(dumps) != 1 || dumps[0].Kind != obs.AnomalySLOBurn {
		t.Fatalf("dumps = %+v, want one %s", dumps, obs.AnomalySLOBurn)
	}
	if got := reg.Snapshot().Gauges[`maqs_slo_state{class="gold",objective="errors"}`]; got != int64(sloBurning) {
		t.Fatalf("state gauge = %d, want %d", got, sloBurning)
	}

	// Past both windows the bad events age out; healthy traffic recovers.
	clk.advance(70)
	observeN(e, "gold", 20, nil)
	if got := state(e, "gold", "errors"); got != "ok" {
		t.Fatalf("state after recovery = %s, want ok", got)
	}
}

func TestSLOEngineWarningBetweenThresholds(t *testing.T) {
	e, _ := newTestSLOEngine(obs.NewRegistry(), nil)
	e.setObjective("silver", Objective{Name: "errors", Target: 0.9})

	// 3 bad / 10 total with a 0.1 budget: burn 3 — over warn (2), under
	// critical (10).
	observeN(e, "silver", 7, nil)
	observeN(e, "silver", 3, errors.New("boom"))

	if got := state(e, "silver", "errors"); got != "warning" {
		t.Fatalf("state = %s, want warning", got)
	}
}

func TestSLOEngineMinSamplesHoldsState(t *testing.T) {
	e, _ := newTestSLOEngine(obs.NewRegistry(), nil)
	e.setObjective("gold", Objective{Name: "errors", Target: 0.99})

	// 5 failures is a 100x burn but under the sample floor: one flaky
	// request out of a handful must not page.
	observeN(e, "gold", 5, errors.New("boom"))
	if got := state(e, "gold", "errors"); got != "ok" {
		t.Fatalf("state changed on 5 samples: %s", got)
	}
}

func TestSLOEngineBurnRateGauges(t *testing.T) {
	reg := obs.NewRegistry()
	e, _ := newTestSLOEngine(reg, nil)
	e.setObjective("gold", Objective{Name: "errors", Target: 0.99})
	observeN(e, "gold", 10, nil)
	observeN(e, "gold", 10, errors.New("boom"))

	snap := reg.Snapshot()
	fast, ok := snap.Floats[`maqs_slo_burn_rate{class="gold",objective="errors",window="fast"}`]
	if !ok {
		t.Fatalf("no fast burn gauge in snapshot: %v", snap.Floats)
	}
	// 10 bad / 20 total over a 0.01 budget = 50.
	if fast < 49 || fast > 51 {
		t.Errorf("fast burn = %g, want ~50", fast)
	}
	if _, ok := snap.Floats[`maqs_slo_burn_rate{class="gold",objective="errors",window="slow"}`]; !ok {
		t.Error("no slow burn gauge in snapshot")
	}
}

func TestSLOEngineStatusBudget(t *testing.T) {
	e, _ := newTestSLOEngine(obs.NewRegistry(), nil)
	e.setObjective("gold", Objective{Name: "errors", Target: 0.9})
	// 5 bad / 100 total: half the 0.1 budget consumed.
	observeN(e, "gold", 95, nil)
	observeN(e, "gold", 5, errors.New("boom"))

	st := e.Status()
	o := st.Classes[0].Objectives[0]
	if o.Good != 95 || o.Bad != 5 {
		t.Fatalf("good/bad = %d/%d, want 95/5", o.Good, o.Bad)
	}
	if o.BudgetRemaining < 0.49 || o.BudgetRemaining > 0.51 {
		t.Errorf("budget remaining = %g, want ~0.5", o.BudgetRemaining)
	}
}

// The engine tells a watching Degrader about a burning objective: the
// watch steps the ladder only once the binding's contract is burning.
func TestSLOEngineNotifyDegrader(t *testing.T) {
	w, bundle := newObservedWorld(t, 0)
	d := negotiatePlan(t, w, 9, 0)

	e, _ := newTestSLOEngine(bundle.Registry, bundle.Flight)
	e.setObjectivesFromContract("Tracing", w.stub.Binding().Contract)
	watch := d.WatchSLO(e)
	tick := Observation{Characteristic: "Tracing", Operation: "inc"}

	observeN(e, "Tracing", 20, nil)
	watch(tick)
	if d.Level() != 0 || d.inflight.Load() {
		t.Fatal("degrader stepped while the class was healthy")
	}

	observeN(e, "Tracing", 20, errors.New("boom"))
	watch(tick)
	waitForLevel(t, d, 1)
	if reasons := degradeReasons(bundle); len(reasons) != 1 || reasons[0] != "slo-burn:Tracing/errors" {
		t.Fatalf("qos.degrade reasons = %q, want [slo-burn:Tracing/errors]", reasons)
	}
}

func TestSLOEngineObserverForStub(t *testing.T) {
	w, bundle := newObservedWorld(t, 0)
	negotiateLevel(t, w, 3)

	e, _ := newTestSLOEngine(bundle.Registry, bundle.Flight)
	w.stub.AddObserver(e.ObserverForStub(w.stub))

	for i := 0; i < 4; i++ {
		w.inc(t)
	}

	st := e.Status()
	if len(st.Classes) != 1 || st.Classes[0].Class != "Tracing" {
		t.Fatalf("Status = %+v, want objectives derived for class Tracing", st)
	}
	var total uint64
	for _, o := range st.Classes[0].Objectives {
		total += o.Good + o.Bad
	}
	if total != 4 {
		t.Fatalf("scored %d observations, want 4", total)
	}
}

func TestSLOEngineNilSafe(t *testing.T) {
	var e *SLOEngine
	e.setObjective("gold", Objective{Name: "errors"})
	e.setObjectivesFromContract("gold", &Contract{})
	e.Observe("gold", Observation{})
	e.ObserverForStub(nil)(Observation{})
	if _, ok := e.burning("gold", nil); ok {
		t.Fatal("nil engine reports a burning objective")
	}
	if st := e.Status(); len(st.Classes) != 0 {
		t.Fatalf("nil engine Status = %+v", st)
	}
}

func TestSLONewContractStartsNewBudget(t *testing.T) {
	reg := obs.NewRegistry()
	e, _ := newTestSLOEngine(reg, nil)
	s := boundStub(0)
	observe := e.ObserverForStub(s)
	for i := 0; i < 20; i++ {
		observe(Observation{Operation: "fetch", Err: errors.New("boom")})
	}
	if _, ok := e.burning("compression", s.binding.Contract); !ok {
		t.Fatal("20 failures: the errors objective is not burning")
	}
	// Renegotiation installs a new contract with the same terms. Until its
	// first observation the class's state judges the old contract only.
	s.binding = boundStub(0).binding
	if _, ok := e.burning("compression", s.binding.Contract); ok {
		t.Fatal("the old contract's budget judged the new contract")
	}
	observe(Observation{Operation: "fetch"})
	if o := e.Status().Classes[0].Objectives[0]; o.State != "ok" || o.Good != 1 || o.Bad != 0 {
		t.Fatalf("after renegotiation = %+v, want state ok with good/bad 1/0", o)
	}
	snap := reg.Snapshot()
	if got := snap.Gauges[`maqs_slo_state{class="compression",objective="errors"}`]; got != int64(sloOK) {
		t.Errorf("state gauge = %d, want ok", got)
	}
	if got := snap.Counters[`maqs_slo_bad_total{class="compression",objective="errors"}`]; got != 20 {
		t.Errorf("cumulative bad = %d, want 20 (totals keep counting)", got)
	}
}

func TestSLORenegotiationDropsStaleObjectives(t *testing.T) {
	reg := obs.NewRegistry()
	e, _ := newTestSLOEngine(reg, nil)
	var bounds []time.Duration
	e.SetLatencySink(func(_ string, d time.Duration) { bounds = append(bounds, d) })
	s := boundStub(10)
	observe := e.ObserverForStub(s)
	observe(Observation{Operation: "fetch", RTT: 25 * time.Millisecond})
	s.binding = boundStub(0).binding // renegotiated: no max_rtt_ms
	observe(Observation{Operation: "fetch", RTT: time.Hour})

	if objs := e.Status().Classes[0].Objectives; len(objs) != 1 || objs[0].Objective != "errors" {
		t.Fatalf("objectives = %+v, want only errors", objs)
	}
	if got := reg.Snapshot().Counters[`maqs_slo_bad_total{class="compression",objective="latency"}`]; got != 1 {
		t.Errorf("latency bad = %d, want 1: the slow call after renegotiation must not count", got)
	}
	if len(bounds) != 2 || bounds[0] != 10*time.Millisecond || bounds[1] != 0 {
		t.Errorf("latency sink got %v, want [10ms 0s]: the tail sampler must drop the stale bound", bounds)
	}
}

func TestSLOSetObjectiveRacesObserveAndStatus(t *testing.T) {
	e, _ := newTestSLOEngine(obs.NewRegistry(), obs.NewFlightRecorder(16, 4, 4))
	e.setObjective("gold", Objective{Name: "latency", Target: 0.99, MaxRTT: time.Millisecond})
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Targets 0.99 and 0.5 burn and only warn on all-bad traffic, so
		// state transitions keep happening.
		for i := 0; i < 200; i++ {
			e.setObjective("gold", Objective{Name: "errors", Target: 0.5 + 0.49*float64(i%2)})
		}
	}()
	for i := 0; i < 200; i++ {
		e.Observe("gold", Observation{Operation: "echo", Err: errors.New("boom")})
		e.Status()
	}
	<-done
}
