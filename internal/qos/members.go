package qos

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"maqs/internal/giop"
	"maqs/internal/ior"
	"maqs/internal/orb"
)

// Members is the per-server state of a delivery mediator that spreads one
// client/server relationship over several servers (replica fan-out, load
// balancing). Every server holds its own agreement — there is no
// system-wide QoS state (paper §3) — and what a request to one of them
// needs, the reference retargeted at it and its binding with the encoded
// tag, is fixed when that agreement is made. Members owns the bindings it
// negotiates (Close releases them); the stub's own stays the stub's.
type Members struct {
	orb      *orb.ORB
	ref      *ior.IOR  // the cluster reference members are retargeted from
	proposal *Proposal // what further servers are asked for: the first agreement's values
	first    *Binding  // the stub's own: released by the stub, not by Close
	closed   atomic.Bool

	mu         sync.Mutex
	byEndpoint map[string]*member
}

// member is one server of the group. negotiating makes first contact
// single-flight; Close takes it too, so no negotiation outlives the record.
// timedOut (under Members.mu) are bindings forgotten after a timeout: the
// server is alive and still holds them, so Close owes it their release.
type member struct {
	target      *ior.IOR
	negotiating sync.Mutex
	binding     atomic.Pointer[Binding]
	timedOut    []*Binding
}

// NewMembers starts the record for st's target with the binding st has
// just negotiated at the target's profile endpoint.
func NewMembers(st *Stub, first *Binding) *Members {
	ms := &Members{orb: st.ORB(), ref: st.Target(), proposal: ProposalFromContract(first.Contract),
		first: first, byEndpoint: make(map[string]*member)}
	m := &member{target: ms.ref}
	m.binding.Store(first)
	ms.byEndpoint[ms.ref.Profile.Addr()] = m
	return ms
}

// member returns the record of the server at endpoint ("host:port"),
// retargeting the cluster reference at it on first sight.
func (ms *Members) member(endpoint string) (*member, error) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	m, ok := ms.byEndpoint[endpoint]
	if !ok {
		target, err := ms.ref.At(endpoint)
		if err != nil {
			return nil, err
		}
		m = &member{target: target}
		ms.byEndpoint[endpoint] = m
	}
	return m, nil
}

// Route copies inv for delivery to the member at endpoint: addressed to it
// and tagged with its binding, which is negotiated on first contact.
func (ms *Members) Route(ctx context.Context, inv *orb.Invocation, endpoint string) (*orb.Invocation, error) {
	m, err := ms.member(endpoint)
	if err != nil {
		return nil, err
	}
	b := m.binding.Load()
	if b == nil {
		m.negotiating.Lock()
		defer m.negotiating.Unlock()
		if b = m.binding.Load(); b == nil {
			if ms.closed.Load() {
				return nil, fmt.Errorf("qos: member %s contacted after release", endpoint)
			}
			if b, err = NegotiateRaw(ctx, ms.orb, m.target, ms.proposal); err != nil {
				return nil, fmt.Errorf("qos: binding member %s: %w", endpoint, err)
			}
			m.binding.Store(b)
		}
	}
	routed := *inv
	routed.Target = m.target
	routed.SetQoSTag(b.tag)
	return &routed, nil
}

// Settle judges one delivery made through routed. A transport failure, or
// the server answering that it does not know the binding (it restarted), is
// the member failing, not answering: its binding is forgotten — that one
// only, so a slow loser cannot discard what a faster caller has
// renegotiated meanwhile — and the failure comes back as an error for the
// mediator to mask (MemberFailure). Everything else passes through. After a
// timeout the server has not lost the binding, only the caller's patience:
// it is kept aside for Close.
func (ms *Members) Settle(routed *orb.Invocation, out *orb.Outcome, err error) (*orb.Outcome, error) {
	if err == nil && out.Status == giop.ReplySystemException {
		if exc := out.Err(); unknownBinding(exc) {
			err = exc
		}
	}
	if err == nil || !MemberFailure(err) { // nil first: errors.As allocates its target
		return out, err
	}
	tag, _, _ := routed.QoSTag()
	if m, _ := ms.member(routed.Target.Profile.Addr()); m != nil {
		if b := m.binding.Load(); b != nil && b.ID == tag.BindingID && m.binding.CompareAndSwap(b, nil) {
			if b != ms.first && timedOut(err) {
				ms.mu.Lock()
				m.timedOut = append(m.timedOut, b)
				ms.mu.Unlock()
			}
		}
	}
	return nil, err
}

// MemberFailure reports whether err means a member could not be reached or
// has lost its binding — what a group masks — rather than its answer.
func MemberFailure(err error) bool {
	var sys *orb.SystemException
	return errors.As(err, &sys) && (unknownBinding(sys) ||
		sys.Name == orb.ExcCommFailure || sys.Name == orb.ExcTransient || sys.Name == orb.ExcTimeout)
}

func timedOut(err error) bool {
	var sys *orb.SystemException
	return errors.As(err, &sys) && sys.Name == orb.ExcTimeout
}

func unknownBinding(err error) bool {
	var sys *orb.SystemException
	return errors.As(err, &sys) && sys.Name == orb.ExcBadQoS && sys.Minor == minorUnknownBinding
}

// Close releases every binding the record negotiated, those forgotten after
// a timeout included, on the server that holds it. Best effort: an
// unreachable member keeps its entry until it restarts, and the others are
// still released.
func (ms *Members) Close() error {
	ms.closed.Store(true)
	ms.mu.Lock()
	members := make([]*member, 0, len(ms.byEndpoint))
	for _, m := range ms.byEndpoint {
		members = append(members, m)
	}
	ms.mu.Unlock()
	for _, m := range members {
		m.negotiating.Lock()
		b := m.binding.Swap(nil)
		m.negotiating.Unlock()
		ms.mu.Lock()
		held := m.timedOut
		m.timedOut = nil
		ms.mu.Unlock()
		if b != nil && b != ms.first {
			held = append(held, b)
		}
		for _, b := range held {
			if err := releaseBinding(context.TODO(), ms.orb, m.target, b); err != nil {
				ms.orb.Logger().Warn("qos: releasing member binding failed", "member", m.target.Profile.Addr(), "binding", b.ID, "err", err)
			}
		}
	}
	return nil
}
