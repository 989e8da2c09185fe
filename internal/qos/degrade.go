package qos

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"maqs/internal/obs"
	"maqs/internal/resilience"
)

// errLadderExhausted is returned by Degrade once the binding is on the
// plan's last candidate: the contract cannot get any cheaper.
var errLadderExhausted = errors.New("qos: degradation ladder exhausted")

// Degrader drives the paper's renegotiation machinery automatically:
// instead of failing calls when the contract cannot be met, the binding
// steps down the client's contract hierarchy. Its rungs are the plan
// Stub.NegotiatePlan bound: the candidate the server admitted first,
// then the rest of the plan in preference order. It reacts to two
// signals — the SLO engine finding the contract's error budget burning
// (WatchSLO) and endpoint health reported by the ORB's circuit breakers
// (WatchBreakers) — and can be stepped manually with Degrade/Recover.
// All reactions renegotiate asynchronously, off the invocation path that
// triggered them.
type Degrader struct {
	stub     *Stub
	rungs    []candidate
	cooldown time.Duration

	// opMu serialises steps so concurrent triggers cannot double-step
	// the ladder.
	opMu sync.Mutex

	mu             sync.Mutex
	level          int // index of the rung the binding is on
	lastChange     time.Time
	pendingBreaker bool // a breaker opened; degrade when it closes again

	inflight atomic.Bool // an async step is running
}

// NegotiatePlan plans the hierarchy against the offers of the stub's
// target and binds the first candidate the server admits. A candidate
// the server refuses, or whose characteristic has no client-side
// mediator, passes to the next one; any other failure ends the
// negotiation. The returned Degrader's ladder is the rest of the plan.
// Automatic triggers step it at most once a second.
func (s *Stub) NegotiatePlan(ctx context.Context, root *Node) (*Degrader, error) {
	offers, err := s.queryOffers(ctx)
	if err != nil {
		return nil, fmt.Errorf("qos: querying offers: %w", err)
	}
	plan := root.plan(offers)
	if len(plan) == 0 {
		return nil, fmt.Errorf("qos: no feasible contract in hierarchy %q", root.label)
	}
	for i, cand := range plan {
		if _, err = s.Negotiate(ctx, cand.proposal); err == nil {
			return &Degrader{stub: s, rungs: plan[i:], cooldown: time.Second}, nil
		}
		if !refused(err) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("qos: every candidate of hierarchy %q refused, last: %w", root.label, err)
}

// refused reports whether a failed negotiation is one a plan moves past:
// the server declining the proposal, or the client having no mediator
// for its characteristic.
func refused(err error) bool {
	var ne *NegotiationError
	return errors.As(err, &ne) || errors.Is(err, errUnregistered)
}

// Level reports how many rungs below the first bound candidate the
// binding is (0 = that candidate).
func (d *Degrader) Level() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.level
}

// Rung reports the label of the candidate the binding is on.
func (d *Degrader) Rung() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rungs[d.level].label
}

// move binds the first rung the server admits of from, from+dir, ...,
// passing over refused ones, and returns its index and contract. A
// fresh negotiation releases the binding first, so a move that binds
// nothing puts the stub back on the rung it left.
func (d *Degrader) move(ctx context.Context, from, dir int) (int, *Contract, error) {
	var err error
	for i := from; i >= 0 && i < len(d.rungs); i += dir {
		var c *Contract
		if c, err = d.bind(ctx, d.rungs[i].proposal); err == nil {
			d.mu.Lock()
			d.level = i
			d.lastChange = time.Now()
			d.mu.Unlock()
			return i, c, nil
		}
		if !refused(err) {
			break
		}
	}
	if d.stub.Binding() == nil {
		_, _ = d.bind(ctx, d.rungs[d.Level()].proposal)
	}
	return 0, nil, err
}

// bind puts the stub on p: a renegotiation of the current binding when
// it has p's characteristic, a fresh negotiation otherwise.
func (d *Degrader) bind(ctx context.Context, p *Proposal) (*Contract, error) {
	if b := d.stub.Binding(); b != nil && b.Characteristic == p.Characteristic {
		return d.stub.Renegotiate(ctx, p)
	}
	b, err := d.stub.Negotiate(ctx, p)
	if err != nil {
		return nil, err
	}
	return b.Contract, nil
}

// Degrade moves the binding to the next rung down the ladder the server
// admits and returns the degraded contract. reason is recorded on the
// qos.degrade span.
func (d *Degrader) Degrade(ctx context.Context, reason string) (*Contract, error) {
	d.opMu.Lock()
	defer d.opMu.Unlock()
	from := d.Level() + 1
	if from >= len(d.rungs) {
		return nil, errLadderExhausted
	}

	ctx, span := d.stub.orb.Tracer().StartSpan(ctx, "qos.degrade")
	span.SetAttr("reason", reason)
	defer span.End()
	level, contract, err := d.move(ctx, from, 1)
	if err != nil {
		d.stub.orb.Metrics().Counter("maqs_qos_degradation_failures_total").Inc()
		span.RecordError(err)
		return nil, err
	}
	step := d.rungs[level].label
	span.SetAttr("step", step)
	span.AddEvent("qos.degrade",
		obs.Attr{Key: "step", Value: step},
		obs.Attr{Key: "reason", Value: reason},
		obs.Attr{Key: "level", Value: strconv.Itoa(level)})
	d.stub.orb.Metrics().Counter("maqs_qos_degradations_total").Inc()
	// A ladder step is an anomaly worth forensics: freeze the calls that
	// led up to the renegotiation.
	d.stub.orb.Flight().Trigger(obs.AnomalyDegrade, obs.FlightRecord{
		Operation: "(qos)",
		Binding:   contract.Characteristic,
		Stripe:    -1,
		Outcome:   "degraded:" + step + " reason:" + reason,
	})
	d.stub.orb.Logger().Info("qos: degraded contract",
		"step", step, "reason", reason, "level", level)
	return contract, nil
}

// Recover moves the binding to the next rung up the ladder the server
// admits, never above the candidate NegotiatePlan bound.
func (d *Degrader) Recover(ctx context.Context) (*Contract, error) {
	d.opMu.Lock()
	defer d.opMu.Unlock()
	from := d.Level() - 1
	if from < 0 {
		return nil, errors.New("qos: binding is not degraded")
	}

	ctx, span := d.stub.orb.Tracer().StartSpan(ctx, "qos.recover")
	defer span.End()
	level, contract, err := d.move(ctx, from, -1)
	if err != nil {
		span.RecordError(err)
		return nil, err
	}
	step := d.rungs[level].label
	span.SetAttr("step", step)
	span.AddEvent("qos.recover",
		obs.Attr{Key: "step", Value: step},
		obs.Attr{Key: "level", Value: strconv.Itoa(level)})
	d.stub.orb.Metrics().Counter("maqs_qos_recoveries_total").Inc()
	return contract, nil
}

// WatchSLO returns an Observer that steps the ladder down while an
// objective of the observed call's class burns its error budget — the
// "sustained contract violation" trigger; the contract's max_rtt_ms,
// slo_target and max_error_rate are the policy. Attach it with
// Stub.AddObserver after the engine's own observer (System.Stub attaches
// that one first), so it reads the state the same call produced. It is
// level-triggered: every call made while the class burns asks for a
// step, and the cooldown and single flight bound that to one rung per
// cooldown, so a failed step is retried by a later call.
func (d *Degrader) WatchSLO(e *SLOEngine) Observer {
	return func(o Observation) {
		class := o.Characteristic
		if class == "" {
			class = "none"
		}
		if b := d.stub.Binding(); b != nil {
			if objective, ok := e.burning(class, b.Contract); ok {
				d.degradeAsync("slo-burn:" + class + "/" + objective)
			}
		}
	}
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
	exhausted := d.level+1 >= len(d.rungs)
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
