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
	e.SetObjectivesFromContract("gold", c)

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
	e.SetObjectivesFromContract("bronze", &Contract{Characteristic: "bronze", Values: map[string]Value{}})
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
	e.SetObjective("gold", Objective{Name: "latency", Target: 0.99, MaxRTT: 100 * time.Millisecond})

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

func TestSLOEngineBurnStateMachine(t *testing.T) {
	reg := obs.NewRegistry()
	fr := obs.NewFlightRecorder(64, 8, 8)
	e, clk := newTestSLOEngine(reg, fr)
	e.SetObjective("gold", Objective{Name: "errors", Target: 0.99})

	var events []BurnEvent
	e.onBurn(func(ev BurnEvent) { events = append(events, ev) })

	// 20 straight failures: burn = (bad/total)/budget = 1/0.01 = 100 on
	// both windows, far over critical.
	observeN(e, "gold", 20, errors.New("boom"))

	if len(events) != 1 {
		t.Fatalf("events = %+v, want exactly one transition", events)
	}
	ev := events[0]
	if ev.State != SLOBurning || ev.Class != "gold" || ev.Objective != "errors" {
		t.Fatalf("event = %+v, want gold/errors burning", ev)
	}
	if ev.FastBurn < defaultCriticalBurnRate || ev.SlowBurn < defaultCriticalBurnRate {
		t.Fatalf("burn rates %g/%g below critical", ev.FastBurn, ev.SlowBurn)
	}
	if ev.DumpID == "" {
		t.Fatal("burning transition froze no flight dump")
	}
	dump, ok := fr.Dump(ev.DumpID)
	if !ok {
		t.Fatalf("dump %q not retrievable", ev.DumpID)
	}
	if dump.Trigger.Anomaly != obs.AnomalySLOBurn {
		t.Fatalf("dump anomaly = %q, want %q", dump.Trigger.Anomaly, obs.AnomalySLOBurn)
	}
	if got := reg.Snapshot().Gauges[`maqs_slo_state{class="gold",objective="errors"}`]; got != int64(SLOBurning) {
		t.Fatalf("state gauge = %d, want %d", got, SLOBurning)
	}

	// Past both windows the bad events age out; healthy traffic recovers.
	clk.advance(70)
	observeN(e, "gold", 20, nil)
	if len(events) != 2 || events[1].State != SLOOk {
		t.Fatalf("events = %+v, want recovery to ok", events)
	}
}

func TestSLOEngineWarningBetweenThresholds(t *testing.T) {
	e, _ := newTestSLOEngine(obs.NewRegistry(), nil)
	e.SetObjective("silver", Objective{Name: "errors", Target: 0.9})

	var events []BurnEvent
	e.onBurn(func(ev BurnEvent) { events = append(events, ev) })

	// 3 bad / 10 total with a 0.1 budget: burn 3 — over warn (2), under
	// critical (10).
	observeN(e, "silver", 7, nil)
	observeN(e, "silver", 3, errors.New("boom"))

	if len(events) != 1 || events[0].State != SLOWarning {
		t.Fatalf("events = %+v, want one warning transition", events)
	}
}

func TestSLOEngineMinSamplesHoldsState(t *testing.T) {
	e, _ := newTestSLOEngine(obs.NewRegistry(), nil)
	e.SetObjective("gold", Objective{Name: "errors", Target: 0.99})

	var events []BurnEvent
	e.onBurn(func(ev BurnEvent) { events = append(events, ev) })

	// 5 failures is a 100x burn but under the sample floor: one flaky
	// request out of a handful must not page.
	observeN(e, "gold", 5, errors.New("boom"))
	if len(events) != 0 {
		t.Fatalf("state changed on %d samples: %+v", 5, events)
	}
}

func TestSLOEngineBurnRateGauges(t *testing.T) {
	reg := obs.NewRegistry()
	e, _ := newTestSLOEngine(reg, nil)
	e.SetObjective("gold", Objective{Name: "errors", Target: 0.99})
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
	e.SetObjective("gold", Objective{Name: "errors", Target: 0.9})
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

func TestSLOEngineNotifyDegrader(t *testing.T) {
	w, bundle := newObservedWorld(t, 0)
	negotiateLevel(t, w, 9)
	d := NewDegrader(w.stub, DegradeStep{Name: "tracing-off", Proposal: levelProposal(0)})
	d.cooldown = 0

	e, _ := newTestSLOEngine(bundle.Registry, bundle.Flight)
	e.SetObjective("Tracing", Objective{Name: "errors", Target: 0.99})
	e.NotifyDegrader(d)

	observeN(e, "Tracing", 20, errors.New("boom"))
	waitForLevel(t, d, 1)
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
	e.SetObjective("gold", Objective{Name: "errors"})
	e.SetObjectivesFromContract("gold", &Contract{})
	e.Observe("gold", Observation{})
	e.onBurn(func(BurnEvent) {})
	e.NotifyDegrader(nil)
	e.Observer("gold")(Observation{})
	e.ObserverForStub(nil)(Observation{})
	if st := e.Status(); len(st.Classes) != 0 {
		t.Fatalf("nil engine Status = %+v", st)
	}
}
