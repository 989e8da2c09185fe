package replication

import (
	"context"
	"sync"

	"maqs/internal/orb"
	"maqs/internal/qos"
)

// DeliveryStats counts the mediator's fault-masking work.
type DeliveryStats struct {
	// Invocations is the number of logical calls delivered.
	Invocations uint64
	// FanOut is the number of physical sends.
	FanOut uint64
	// MaskedFailures counts replica failures hidden from the client.
	MaskedFailures uint64
	// VoteRounds and VoteDisagreements count majority voting activity.
	VoteRounds, VoteDisagreements uint64
}

// Mediator is the client-side replication aspect.
type Mediator struct {
	qos.BaseMediator
	orb *orb.ORB
	// group holds what is fixed per replica: its reference and its binding.
	// Releasing the stub's binding closes it, which releases the replicas'.
	group *qos.Members

	mu       sync.Mutex
	strategy string
	voting   bool
	replicas int
	members  []string
	stats    DeliveryStats
}

var (
	_ qos.DeliveryMediator   = (*Mediator)(nil)
	_ qos.AdaptiveMediator   = (*Mediator)(nil)
	_ qos.ReleasableMediator = (*Mediator)(nil)
)

// NewMediator builds the replication mediator; group membership comes
// from the cluster reference's ordered endpoints (falling back to the
// profile endpoint).
func NewMediator(st *qos.Stub, b *qos.Binding) (*Mediator, error) {
	endpoints, err := st.Target().AlternateEndpoints()
	if err != nil {
		return nil, err
	}
	if len(endpoints) == 0 {
		endpoints = []string{st.Target().Profile.Addr()}
	}
	m := &Mediator{
		BaseMediator: qos.BaseMediator{Char: Name},
		orb:          st.ORB(),
		group:        qos.NewMembers(st, b),
		members:      endpoints,
	}
	m.applyContract(b.Contract)
	return m, nil
}

// Close implements qos.ReleasableMediator.
func (m *Mediator) Close() error { return m.group.Close() }

func (m *Mediator) applyContract(c *qos.Contract) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.strategy = c.Text(ParamStrategy, StrategyActive)
	m.voting = c.Flag(ParamVoting, false)
	m.replicas = int(c.Number(ParamReplicas, 2))
	if m.replicas < 1 {
		m.replicas = 1
	}
}

// ContractChanged implements qos.AdaptiveMediator.
func (m *Mediator) ContractChanged(c *qos.Contract) error {
	m.applyContract(c)
	return nil
}

// Stats snapshots the delivery counters.
func (m *Mediator) Stats() DeliveryStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Members returns the current group view.
func (m *Mediator) Members() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.members...)
}

// SetMembers replaces the group view (tests and group-change listeners).
func (m *Mediator) SetMembers(members []string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.members = append([]string(nil), members...)
}

// engaged returns the first k members, per the contracted replica count.
// The view is replaced, never written (SetMembers), so callers share it.
func (m *Mediator) engaged() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := min(m.replicas, len(m.members))
	return m.members[:k:k]
}

// sendTo delivers one tagged invocation to one replica.
func (m *Mediator) sendTo(ctx context.Context, inv *orb.Invocation, endpoint string, next qos.Next) (*orb.Outcome, error) {
	routed, err := m.group.Route(ctx, inv, endpoint)
	if err != nil {
		return nil, err
	}
	out, err := next(ctx, routed)
	return m.group.Settle(routed, out, err)
}

// Deliver implements qos.DeliveryMediator.
func (m *Mediator) Deliver(ctx context.Context, inv *orb.Invocation, next qos.Next) (*orb.Outcome, error) {
	m.mu.Lock()
	m.stats.Invocations++
	strategy := m.strategy
	m.mu.Unlock()
	if strategy == StrategyFailover {
		return m.deliverFailover(ctx, inv, next)
	}
	return m.deliverActive(ctx, inv, next)
}

// deliverFailover tries replicas in order until one answers.
func (m *Mediator) deliverFailover(ctx context.Context, inv *orb.Invocation, next qos.Next) (*orb.Outcome, error) {
	var lastErr error
	for _, ep := range m.engaged() {
		out, err := m.sendTo(ctx, inv, ep, next)
		if err != nil {
			if qos.MemberFailure(err) {
				m.mu.Lock()
				m.stats.MaskedFailures++
				m.stats.FanOut++
				m.mu.Unlock()
				lastErr = err
				continue
			}
			return nil, err
		}
		m.mu.Lock()
		m.stats.FanOut++
		m.mu.Unlock()
		return out, nil
	}
	if lastErr != nil {
		return nil, lastErr
	}
	return nil, orb.NewSystemException(orb.ExcTransient, 110, "no replicas engaged")
}

// replicaReply is one replica's part in an active delivery.
type replicaReply struct {
	routed  *orb.Invocation
	fut     *orb.Future
	outcome *orb.Outcome
	err     error
}

// deliverActive writes to all engaged replicas as parallel asynchronous
// sends and collects the quorum: the group's latency is the slowest
// engaged replica (max-of-k) instead of the old goroutine-per-replica
// scatter's scheduling cost on top of it. Failures are masked while at
// least one replica succeeds; with voting enabled the reply must be
// backed by a majority of the engaged replicas.
func (m *Mediator) deliverActive(ctx context.Context, inv *orb.Invocation, next qos.Next) (*orb.Outcome, error) {
	engaged := m.engaged()
	if len(engaged) == 0 {
		return nil, orb.NewSystemException(orb.ExcTransient, 111, "replica group is empty")
	}
	// Dispatch puts every replica's request on its connection back to
	// back — the encode+write cost per replica is a couple of
	// microseconds, so the sends stay inline (a goroutine per dispatch
	// costs more than it overlaps) — and the replies are then collected
	// concurrently through the futures: the group's latency is the
	// slowest replica's round trip (max-of-k), not their sum.
	//
	// The dispatch goes through ORB.InvokeAsync rather than `next`. That is
	// deliberately equivalent, not a shortcut: the stub hands mediators
	// exactly ORB.Invoke as next (see qos.Stub.mediate), so there is no
	// delivery stage between mediator and transport to bypass, and per-call
	// conformance/SLO observation happens in the stub bracket around
	// Deliver — per logical call, never per replica. If a stage is ever
	// layered between mediator and ORB, this dispatch must go through it.
	collected := make([]replicaReply, len(engaged))
	for i, ep := range engaged {
		r := &collected[i]
		if r.routed, r.err = m.group.Route(ctx, inv, ep); r.err == nil {
			r.fut, r.err = m.orb.InvokeAsync(ctx, r.routed)
		}
	}
	for i := range collected {
		r := &collected[i]
		if r.fut != nil {
			r.outcome, r.err = r.fut.Wait(ctx)
		}
		if r.routed != nil {
			r.outcome, r.err = m.group.Settle(r.routed, r.outcome, r.err)
		}
	}

	m.mu.Lock()
	m.stats.FanOut += uint64(len(engaged))
	voting := m.voting
	m.mu.Unlock()

	successes := collected[:0] // filtered in place: the write index never passes the read index
	var failures int
	var lastErr error
	for _, r := range collected {
		if r.err != nil {
			failures++
			lastErr = r.err
			continue
		}
		successes = append(successes, r)
	}
	m.mu.Lock()
	m.stats.MaskedFailures += uint64(failures)
	m.mu.Unlock()

	if len(successes) == 0 {
		if lastErr != nil {
			return nil, lastErr
		}
		return nil, orb.NewSystemException(orb.ExcTransient, 112, "all replicas failed")
	}
	if !voting {
		return successes[0].outcome, nil
	}

	// Majority vote over the reply body bytes of the engaged set.
	m.mu.Lock()
	m.stats.VoteRounds++
	m.mu.Unlock()
	counts := make(map[string][]replicaReply)
	for _, r := range successes {
		key := string(r.outcome.Data) + "\x00" + r.outcome.Status.String()
		counts[key] = append(counts[key], r)
	}
	need := len(engaged)/2 + 1
	for _, group := range counts {
		if len(group) >= need {
			return group[0].outcome, nil
		}
	}
	m.mu.Lock()
	m.stats.VoteDisagreements++
	m.mu.Unlock()
	return nil, orb.NewSystemException(orb.ExcBadQoS, 113,
		"no majority among %d replies of %d replicas", len(successes), len(engaged))
}
