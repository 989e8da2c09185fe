package qos

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"maqs/internal/obs"
)

// Contract terms the SLO engine derives objectives from. A contract that
// negotiates max_rtt_ms implicitly states a latency SLO; slo_target
// tunes what fraction of requests must meet it, and max_error_rate
// bounds the error budget independently.
const (
	// ContractMaxRTTMs is the negotiated upper bound on round-trip time,
	// in milliseconds. Contracts without it (or with a non-positive
	// value) get no latency objective.
	ContractMaxRTTMs = "max_rtt_ms"
	// ContractSLOTarget is the fraction of requests that must be good
	// (0 < target < 1); defaultSLOTarget applies when absent.
	ContractSLOTarget = "slo_target"
	// ContractMaxErrorRate is the tolerated error fraction; when absent
	// the error budget is 1 - target.
	ContractMaxErrorRate = "max_error_rate"
)

// defaultSLOTarget is the good-fraction objective assumed when a
// contract states a latency bound without an explicit slo_target.
const defaultSLOTarget = 0.99

// SLO windows and burn-rate thresholds, Google-SRE style: an alert
// fires only when both a fast window (reacts quickly) and a slow
// window (filters blips) burn the error budget faster than the
// threshold.
const (
	sloFastWindow   = 5 * time.Second
	sloSlowWindow   = time.Minute
	sloBudgetWindow = 5 * time.Minute

	// defaultWarnBurnRate marks budget consumption 2x faster than
	// sustainable; defaultCriticalBurnRate (10x) empties a 5m budget
	// view in 30s and is the dump/degrade trigger.
	defaultWarnBurnRate     = 2.0
	defaultCriticalBurnRate = 10.0

	// sloMinSamples is the fast-window event floor below which the state
	// machine will not escalate: a single bad request out of two must
	// not page.
	sloMinSamples = 10

	// sloEvalInterval throttles state evaluation per objective so the
	// observation hot path stays a pair of window increments.
	sloEvalInterval = 250 * time.Millisecond
)

// SLOState is one objective's alert state.
type SLOState int32

const (
	SLOOk SLOState = iota
	SLOWarning
	SLOBurning
)

// String renders the state for JSON and logs.
func (s SLOState) String() string {
	switch s {
	case SLOWarning:
		return "warning"
	case SLOBurning:
		return "burning"
	default:
		return "ok"
	}
}

// Objective is one service-level objective: a target fraction of good
// events, with "good" defined by the objective kind — latency (RTT
// within MaxRTT, errors count as bad) or errors (no error).
type Objective struct {
	// Name identifies the objective within its class: "latency" or
	// "errors" for derived objectives; custom names are allowed via
	// SetObjective.
	Name string
	// Target is the required good fraction (0 < Target < 1). The error
	// budget is 1 - Target.
	Target float64
	// MaxRTT is the latency bound; 0 means the objective scores errors
	// only.
	MaxRTT time.Duration
}

// BurnEvent describes one objective state transition, delivered to
// onBurn hooks (and through them to the Degrader).
type BurnEvent struct {
	Class     string
	Objective string
	State     SLOState
	FastBurn  float64
	SlowBurn  float64
	// DumpID is the frozen flight dump when the transition entered
	// burning ("" when cooldown-suppressed or no recorder).
	DumpID string
}

// objectiveState is one objective's live counters and alert state.
type objectiveState struct {
	mu  sync.Mutex // guards target/maxRTT updates on renegotiation
	obj Objective

	good *obs.WindowCounter
	bad  *obs.WindowCounter

	goodTotal *obs.Counter
	badTotal  *obs.Counter
	stateG    *obs.Gauge

	state    atomic.Int32
	lastEval atomic.Int64 // unix nanos of the last state evaluation
}

// classSLO groups one QoS class's objectives.
type classSLO struct {
	class string
	// contract is the contract the objectives were last derived from,
	// so renegotiation re-derives exactly once.
	contract atomic.Pointer[Contract]

	mu         sync.Mutex
	objectives []*objectiveState
}

// SLOEngine scores client observations against contract-derived
// objectives per QoS class, maintains rolling multi-window good/bad
// counters, computes fast/slow burn-rate pairs and runs the
// ok → warning → burning alert state machine. A single observation over
// a latency objective's bound freezes an obs.AnomalyQoSViolation dump
// (the recorder's per-kind cooldown bounds how many); entering burning
// freezes an obs.AnomalySLOBurn dump and notifies hooks — wiring the
// Degrader in makes ladder descent budget-driven instead of
// single-violation-driven. A nil *SLOEngine is disabled: every method
// is a no-op.
type SLOEngine struct {
	reg *obs.Registry
	fr  *obs.FlightRecorder

	mu      sync.Mutex
	classes map[string]*classSLO
	hooks   []func(BurnEvent)

	warn     float64
	critical float64

	// evalEvery throttles per-objective state evaluation; tests set 0
	// to evaluate on every observation.
	evalEvery time.Duration
	// latencySink receives every installed latency bound (class, MaxRTT);
	// the tail sampler's slow-trace threshold hangs off it so "slow"
	// means "SLO-relevant slow", not an arbitrary constant.
	latencySink atomic.Pointer[func(class string, maxRTT time.Duration)]
	// now and newWindow are replaceable for deterministic tests.
	now       func() time.Time
	newWindow func() *obs.WindowCounter
}

// NewSLOEngine builds an engine publishing into reg and freezing burn
// evidence into fr (either may be nil: metrics or dumps are skipped).
func NewSLOEngine(reg *obs.Registry, fr *obs.FlightRecorder) *SLOEngine {
	return &SLOEngine{
		reg:       reg,
		fr:        fr,
		classes:   map[string]*classSLO{},
		warn:      defaultWarnBurnRate,
		critical:  defaultCriticalBurnRate,
		evalEvery: sloEvalInterval,
		now:       time.Now,
		newWindow: func() *obs.WindowCounter { return obs.NewWindowCounter(sloBudgetWindow) },
	}
}

// onBurn registers a hook receiving every objective state transition.
// Hooks run synchronously on the observation path that triggered the
// transition and must not block.
func (e *SLOEngine) onBurn(fn func(BurnEvent)) {
	if e == nil || fn == nil {
		return
	}
	e.mu.Lock()
	e.hooks = append(e.hooks, fn)
	e.mu.Unlock()
}

// NotifyDegrader steps the degradation ladder whenever an objective
// enters burning: the budget, not a single violation, drives descent.
func (e *SLOEngine) NotifyDegrader(d *Degrader) {
	if e == nil || d == nil {
		return
	}
	e.onBurn(func(ev BurnEvent) {
		if ev.State == SLOBurning {
			d.degradeAsync(fmt.Sprintf("slo-burn:%s/%s", ev.Class, ev.Objective))
		}
	})
}

// SetLatencySink registers a callback receiving each class's latency
// bound as objectives install or re-derive. maqs.System wires the tail
// sampler's slow threshold through it.
func (e *SLOEngine) SetLatencySink(fn func(class string, maxRTT time.Duration)) {
	if e == nil || fn == nil {
		return
	}
	e.latencySink.Store(&fn)
	// Replay bounds already installed, so a sink registered after
	// negotiation still learns them.
	e.mu.Lock()
	classes := make([]*classSLO, 0, len(e.classes))
	for _, cs := range e.classes {
		classes = append(classes, cs)
	}
	e.mu.Unlock()
	for _, cs := range classes {
		cs.mu.Lock()
		for _, os := range cs.objectives {
			os.mu.Lock()
			maxRTT := os.obj.MaxRTT
			os.mu.Unlock()
			if maxRTT > 0 {
				fn(cs.class, maxRTT)
			}
		}
		cs.mu.Unlock()
	}
}

// notifyLatencySink forwards an installed latency bound to the sink.
func (e *SLOEngine) notifyLatencySink(class string, obj Objective) {
	if obj.MaxRTT <= 0 {
		return
	}
	if fn := e.latencySink.Load(); fn != nil {
		(*fn)(class, obj.MaxRTT)
	}
}

// SetObjective installs (or replaces, by name) one objective for a
// class, independent of any contract — loadgen uses this for scenario
// classes without negotiated terms.
func (e *SLOEngine) SetObjective(class string, obj Objective) {
	if e == nil || obj.Name == "" {
		return
	}
	if obj.Target <= 0 || obj.Target >= 1 {
		obj.Target = defaultSLOTarget
	}
	defer e.notifyLatencySink(class, obj)
	cs := e.classFor(class)
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for _, os := range cs.objectives {
		if os.obj.Name == obj.Name {
			os.mu.Lock()
			os.obj = obj
			os.mu.Unlock()
			return
		}
	}
	cs.objectives = append(cs.objectives, e.newObjective(class, obj))
}

// SetObjectivesFromContract derives a class's objectives from
// negotiated contract terms: max_rtt_ms > 0 yields a latency objective
// (target from slo_target, default defaultSLOTarget) and every
// contract yields an errors objective whose budget comes from
// max_error_rate (default 1 - target). Calling it again with a changed
// contract re-derives in place, keeping the rolling windows.
func (e *SLOEngine) SetObjectivesFromContract(class string, c *Contract) {
	if e == nil || c == nil {
		return
	}
	target := c.Number(ContractSLOTarget, defaultSLOTarget)
	if target <= 0 || target >= 1 {
		target = defaultSLOTarget
	}
	if maxMs := c.Number(ContractMaxRTTMs, 0); maxMs > 0 {
		e.SetObjective(class, Objective{
			Name:   "latency",
			Target: target,
			MaxRTT: time.Duration(maxMs * float64(time.Millisecond)),
		})
	}
	errTarget := target
	if rate := c.Number(ContractMaxErrorRate, 0); rate > 0 && rate < 1 {
		errTarget = 1 - rate
	}
	e.SetObjective(class, Objective{Name: "errors", Target: errTarget})
}

// ObserverForStub scores every observation of s against its current
// binding's contract, deriving (and re-deriving after renegotiation)
// objectives on the fly. Attach with Stub.AddObserver; maqs.System
// does it automatically.
func (e *SLOEngine) ObserverForStub(s *Stub) Observer {
	if e == nil || s == nil {
		return func(Observation) {}
	}
	return func(o Observation) {
		b := s.Binding()
		if b == nil || b.Contract == nil {
			return
		}
		class := b.Characteristic
		cs := e.classFor(class)
		if cs.contract.Load() != b.Contract {
			// First sight of this contract (or a renegotiated one):
			// derive objectives before scoring.
			cs.contract.Store(b.Contract)
			e.SetObjectivesFromContract(class, b.Contract)
		}
		e.Observe(class, o)
	}
}

// Observer scores observations under a fixed class label (for callers
// that configured objectives with SetObjective).
func (e *SLOEngine) Observer(class string) Observer {
	if e == nil {
		return func(Observation) {}
	}
	return func(o Observation) { e.Observe(class, o) }
}

// Observe scores one observation against every objective of class.
func (e *SLOEngine) Observe(class string, o Observation) {
	if e == nil {
		return
	}
	cs := e.classFor(class)
	cs.mu.Lock()
	objectives := cs.objectives
	cs.mu.Unlock()
	for _, os := range objectives {
		os.mu.Lock()
		obj := os.obj
		os.mu.Unlock()
		overBound := obj.MaxRTT > 0 && o.RTT > obj.MaxRTT
		if overBound {
			e.fr.Trigger(obs.AnomalyQoSViolation, obs.FlightRecord{
				Operation: o.Operation,
				Binding:   class,
				Stripe:    -1,
				Outcome:   "rtt-over-contract",
				Latency:   o.RTT,
				At:        o.At,
			})
		}
		if o.Err == nil && !overBound {
			os.good.Inc()
			os.goodTotal.Inc()
		} else {
			os.bad.Inc()
			os.badTotal.Inc()
		}
		e.maybeEval(class, os)
	}
}

// classFor returns (creating on first sight) the class bucket.
func (e *SLOEngine) classFor(class string) *classSLO {
	if class == "" {
		class = "none"
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	cs, ok := e.classes[class]
	if !ok {
		cs = &classSLO{class: class}
		e.classes[class] = cs
	}
	return cs
}

// newObjective builds one objective's state and registers its
// instruments.
func (e *SLOEngine) newObjective(class string, obj Objective) *objectiveState {
	labels := fmt.Sprintf("{class=%q,objective=%q}", class, obj.Name)
	os := &objectiveState{
		obj:       obj,
		good:      e.newWindow(),
		bad:       e.newWindow(),
		goodTotal: e.reg.Counter("maqs_slo_good_total" + labels),
		badTotal:  e.reg.Counter("maqs_slo_bad_total" + labels),
		stateG:    e.reg.Gauge("maqs_slo_state" + labels),
	}
	// Burn-rate gauges are callback-backed so /metrics always reports
	// the current window view without an eval tick.
	e.reg.FloatFunc(fmt.Sprintf("maqs_slo_burn_rate{class=%q,objective=%q,window=%q}", class, obj.Name, "fast"),
		func() float64 { return os.burn(sloFastWindow) })
	e.reg.FloatFunc(fmt.Sprintf("maqs_slo_burn_rate{class=%q,objective=%q,window=%q}", class, obj.Name, "slow"),
		func() float64 { return os.burn(sloSlowWindow) })
	return os
}

// burn computes the burn rate over one window: the fraction of bad
// events divided by the error budget (1 - target). 1.0 means the
// budget is being consumed exactly as fast as it refills; 10x empties
// a 5m budget view in 30s.
func (os *objectiveState) burn(window time.Duration) float64 {
	good := os.good.Sum(window)
	bad := os.bad.Sum(window)
	total := good + bad
	if total == 0 {
		return 0
	}
	os.mu.Lock()
	budget := 1 - os.obj.Target
	os.mu.Unlock()
	if budget <= 0 {
		budget = 1 - defaultSLOTarget
	}
	return (float64(bad) / float64(total)) / budget
}

// maybeEval runs the alert state machine, throttled to evalEvery per
// objective.
func (e *SLOEngine) maybeEval(class string, os *objectiveState) {
	now := e.now().UnixNano()
	last := os.lastEval.Load()
	if e.evalEvery > 0 && now-last < int64(e.evalEvery) {
		return
	}
	if !os.lastEval.CompareAndSwap(last, now) {
		return // another observer is evaluating
	}

	fast := os.burn(sloFastWindow)
	slow := os.burn(sloSlowWindow)
	samples := os.good.Sum(sloFastWindow) + os.bad.Sum(sloFastWindow)

	e.mu.Lock()
	warn, critical := e.warn, e.critical
	hooks := e.hooks
	e.mu.Unlock()

	next := SLOOk
	switch {
	case samples < sloMinSamples:
		// Too few events to judge; hold the current state rather than
		// flapping on single requests.
		return
	case fast >= critical && slow >= critical:
		next = SLOBurning
	case fast >= warn && slow >= warn:
		next = SLOWarning
	}

	prev := SLOState(os.state.Swap(int32(next)))
	os.stateG.Set(int64(next))
	if prev == next {
		return
	}

	ev := BurnEvent{Class: class, Objective: os.obj.Name, State: next, FastBurn: fast, SlowBurn: slow}
	if next == SLOBurning {
		ev.DumpID = e.fr.Trigger(obs.AnomalySLOBurn, obs.FlightRecord{
			Operation: "(slo)",
			Binding:   class,
			Stripe:    -1,
			Outcome: fmt.Sprintf("%s burn fast=%.1f slow=%.1f target=%.3f",
				os.obj.Name, fast, slow, os.obj.Target),
		})
	}
	for _, h := range hooks {
		h(ev)
	}
}

// SLOObjectiveStatus is one objective's live view in the /slo JSON.
type SLOObjectiveStatus struct {
	Objective string  `json:"objective"`
	Target    float64 `json:"target"`
	MaxRTTMs  float64 `json:"max_rtt_ms,omitempty"`
	State     string  `json:"state"`
	FastBurn  float64 `json:"burn_fast"`
	SlowBurn  float64 `json:"burn_slow"`
	// BudgetRemaining is the fraction of the 5m error budget left
	// (1 = untouched, 0 = exhausted, negative = overspent).
	BudgetRemaining float64 `json:"budget_remaining"`
	Good            uint64  `json:"good_5m"`
	Bad             uint64  `json:"bad_5m"`
}

// SLOClassStatus groups one class's objectives in the /slo JSON.
type SLOClassStatus struct {
	Class      string               `json:"class"`
	Objectives []SLOObjectiveStatus `json:"objectives"`
}

// SLOStatus is the /slo endpoint body.
type SLOStatus struct {
	Classes []SLOClassStatus `json:"classes"`
}

// Status reports every class's budget state (classes sorted by name,
// objectives by name). Serves the /slo debug page.
func (e *SLOEngine) Status() SLOStatus {
	st := SLOStatus{Classes: []SLOClassStatus{}}
	if e == nil {
		return st
	}
	e.mu.Lock()
	classes := make([]*classSLO, 0, len(e.classes))
	for _, cs := range e.classes {
		classes = append(classes, cs)
	}
	e.mu.Unlock()
	sort.Slice(classes, func(i, j int) bool { return classes[i].class < classes[j].class })
	for _, cs := range classes {
		cls := SLOClassStatus{Class: cs.class, Objectives: []SLOObjectiveStatus{}}
		cs.mu.Lock()
		objectives := append([]*objectiveState(nil), cs.objectives...)
		cs.mu.Unlock()
		sort.Slice(objectives, func(i, j int) bool { return objectives[i].obj.Name < objectives[j].obj.Name })
		for _, os := range objectives {
			os.mu.Lock()
			obj := os.obj
			os.mu.Unlock()
			good := os.good.Sum(sloBudgetWindow)
			bad := os.bad.Sum(sloBudgetWindow)
			s := SLOObjectiveStatus{
				Objective: obj.Name,
				Target:    obj.Target,
				State:     SLOState(os.state.Load()).String(),
				FastBurn:  os.burn(sloFastWindow),
				SlowBurn:  os.burn(sloSlowWindow),
				Good:      good,
				Bad:       bad,
			}
			if obj.MaxRTT > 0 {
				s.MaxRTTMs = float64(obj.MaxRTT) / float64(time.Millisecond)
			}
			budget := 1 - obj.Target
			if total := good + bad; total > 0 && budget > 0 {
				s.BudgetRemaining = 1 - (float64(bad)/float64(total))/budget
			} else {
				s.BudgetRemaining = 1
			}
			cls.Objectives = append(cls.Objectives, s)
		}
		st.Classes = append(st.Classes, cls)
	}
	return st
}
