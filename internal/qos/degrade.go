package qos

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"maqs/internal/obs"
	"maqs/internal/resilience"
)

// DegradeStep is one rung of a degradation ladder: the proposal the
// binding is renegotiated to when the Degrader steps down to this rung.
// Steps are ordered from the mildest concession to the cheapest contract
// (e.g. compression off → on, replication quorum shrink).
type DegradeStep struct {
	// Name labels the rung in spans, metrics and logs.
	Name string
	// Proposal is renegotiated when this rung is entered.
	Proposal *Proposal
}

// errLadderExhausted is returned by Degrade once every rung has been
// taken: the contract cannot get any cheaper.
var errLadderExhausted = errors.New("qos: degradation ladder exhausted")

// Degrader drives the paper's renegotiation machinery automatically:
// instead of failing calls when the contract cannot be met, the binding
// is renegotiated down a ladder of degraded contracts. It reacts to two
// signals — sustained violation reported by a Monitor rule
// (WatchMonitor) and endpoint health reported by the ORB's circuit
// breakers (WatchBreakers) — and can be stepped manually with
// Degrade/Recover. All reactions renegotiate asynchronously, off the
// invocation path that triggered them.
type Degrader struct {
	stub     *Stub
	steps    []DegradeStep
	cooldown time.Duration

	// opMu serialises renegotiations so concurrent triggers cannot
	// double-step the ladder.
	opMu sync.Mutex

	mu             sync.Mutex
	level          int       // 0 = original contract, i = steps[i-1] applied
	baseline       *Proposal // captured before the first step, for Recover
	lastChange     time.Time
	pendingBreaker bool // a breaker opened; degrade when it closes again

	inflight atomic.Bool // an async renegotiation is running
}

// NewDegrader builds a degrader over the stub's binding with the given
// ladder. The stub must have a negotiated binding before the first step
// is taken. Automatic triggers step the ladder at most once a second.
func NewDegrader(s *Stub, steps ...DegradeStep) *Degrader {
	return &Degrader{stub: s, steps: steps, cooldown: time.Second}
}

// Level reports how many rungs down the ladder the binding currently is
// (0 = original contract).
func (d *Degrader) Level() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.level
}

// Degrade renegotiates the binding one rung down the ladder and returns
// the degraded contract. reason is recorded on the qos.degrade span.
func (d *Degrader) Degrade(ctx context.Context, reason string) (*Contract, error) {
	d.opMu.Lock()
	defer d.opMu.Unlock()

	d.mu.Lock()
	if d.level >= len(d.steps) {
		d.mu.Unlock()
		return nil, errLadderExhausted
	}
	step := d.steps[d.level]
	if d.baseline == nil {
		if b := d.stub.Binding(); b != nil {
			d.baseline = proposalFromContract(b.Contract)
		}
	}
	d.mu.Unlock()

	ctx, span := d.stub.orb.Tracer().StartSpan(ctx, "qos.degrade")
	span.SetAttr("step", step.Name)
	span.SetAttr("reason", reason)
	defer span.End()

	contract, err := d.stub.Renegotiate(ctx, step.Proposal)
	if err != nil {
		d.stub.orb.Metrics().Counter("maqs_qos_degradation_failures_total").Inc()
		span.RecordError(err)
		return nil, err
	}

	d.mu.Lock()
	d.level++
	level := d.level
	d.lastChange = time.Now()
	d.mu.Unlock()

	span.AddEvent("qos.degrade",
		obs.Attr{Key: "step", Value: step.Name},
		obs.Attr{Key: "reason", Value: reason},
		obs.Attr{Key: "level", Value: strconv.Itoa(level)})
	d.stub.orb.Metrics().Counter("maqs_qos_degradations_total").Inc()
	// A ladder step is an anomaly worth forensics: freeze the calls that
	// led up to the renegotiation.
	binding := ""
	if b := d.stub.Binding(); b != nil {
		binding = b.Characteristic
	}
	d.stub.orb.Flight().Trigger(obs.AnomalyDegradeStep, obs.FlightRecord{
		Operation: "(qos)",
		Binding:   binding,
		Stripe:    -1,
		Outcome:   "degraded:" + step.Name + " reason:" + reason,
	})
	d.stub.orb.Logger().Info("qos: degraded contract",
		"step", step.Name, "reason", reason, "level", level)
	return contract, nil
}

// Recover renegotiates the binding one rung back up the ladder (to the
// previous step, or to the baseline contract captured before the first
// degradation).
func (d *Degrader) Recover(ctx context.Context) (*Contract, error) {
	d.opMu.Lock()
	defer d.opMu.Unlock()

	d.mu.Lock()
	if d.level == 0 {
		d.mu.Unlock()
		return nil, errors.New("qos: binding is not degraded")
	}
	var target *Proposal
	var name string
	if d.level >= 2 {
		target, name = d.steps[d.level-2].Proposal, d.steps[d.level-2].Name
	} else {
		target, name = d.baseline, "baseline"
	}
	d.mu.Unlock()
	if target == nil {
		return nil, errors.New("qos: no baseline proposal to recover to")
	}

	ctx, span := d.stub.orb.Tracer().StartSpan(ctx, "qos.recover")
	span.SetAttr("step", name)
	defer span.End()
	contract, err := d.stub.Renegotiate(ctx, target)
	if err != nil {
		span.RecordError(err)
		return nil, err
	}

	d.mu.Lock()
	d.level--
	level := d.level
	d.lastChange = time.Now()
	d.mu.Unlock()

	span.AddEvent("qos.recover",
		obs.Attr{Key: "step", Value: name},
		obs.Attr{Key: "level", Value: strconv.Itoa(level)})
	d.stub.orb.Metrics().Counter("maqs_qos_recoveries_total").Inc()
	return contract, nil
}

// WatchMonitor returns an Observer (attach it with Stub.AddObserver)
// that evaluates the given rules against the monitor after every call
// and steps the ladder down when one is violated — the "sustained
// contract violation" trigger.
func (d *Degrader) WatchMonitor(m *Monitor, rules ...Rule) Observer {
	a := NewAdaptor(m, func(r Rule, _ Stats) { d.degradeAsync("rule:" + r.Name) })
	for _, r := range rules {
		a.AddRule(r)
	}
	return func(Observation) { a.Evaluate() }
}

// WatchBreakers reacts to the ORB's circuit breakers: a breaker opening
// marks the binding for degradation, and the renegotiation runs once the
// breaker closes again (the endpoint must be reachable to renegotiate).
// A nil group (no resilience policy installed) is a no-op.
func (d *Degrader) WatchBreakers(g *resilience.Group) {
	if g == nil {
		return
	}
	g.Subscribe(func(tr resilience.Transition) {
		switch tr.To {
		case resilience.Open:
			d.mu.Lock()
			d.pendingBreaker = true
			d.mu.Unlock()
		case resilience.Closed:
			d.mu.Lock()
			pending := d.pendingBreaker
			d.pendingBreaker = false
			d.mu.Unlock()
			if pending {
				d.degradeAsync("breaker:" + tr.Endpoint)
			}
		}
	})
}

// degradeAsync steps the ladder in a fresh goroutine, off the breaker
// subscriber / stub observer that triggered it (renegotiation re-enters
// the invocation path, so it must not run inline). Single-flighted and
// cooldown-gated.
func (d *Degrader) degradeAsync(reason string) {
	d.mu.Lock()
	tooSoon := !d.lastChange.IsZero() && time.Since(d.lastChange) < d.cooldown
	exhausted := d.level >= len(d.steps)
	d.mu.Unlock()
	if tooSoon || exhausted {
		return
	}
	if !d.inflight.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer d.inflight.Store(false)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if _, err := d.Degrade(ctx, reason); err != nil && !errors.Is(err, errLadderExhausted) {
			d.stub.orb.Logger().Warn("qos: automatic degradation failed", "reason", reason, "err", err)
		}
	}()
}
