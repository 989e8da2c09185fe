package qos

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"maqs/internal/cdr"
	"maqs/internal/ior"
	"maqs/internal/obs"
	"maqs/internal/orb"
)

// decodeNegotiationError extracts a NegotiationError from a user
// exception, if it is one.
func decodeNegotiationError(err error) (*NegotiationError, bool) {
	var uexc *orb.UserException
	if !errors.As(err, &uexc) || uexc.RepoID != excNegotiationFailed {
		return nil, false
	}
	// The payload is always encoded big-endian (see negotiationFailure).
	ne, derr := decodeNegotiationPayload(cdr.NewDecoder(uexc.Data, cdr.BigEndian))
	if derr != nil {
		return &NegotiationError{Reason: "negotiation failed (payload undecodable)"}, true
	}
	return ne, true
}

func decodeNegotiationPayload(d *cdr.Decoder) (*NegotiationError, error) {
	char, err := d.ReadString()
	if err != nil {
		return nil, err
	}
	param, err := d.ReadString()
	if err != nil {
		return nil, err
	}
	reason, err := d.ReadString()
	if err != nil {
		return nil, err
	}
	return &NegotiationError{Characteristic: char, Param: param, Reason: reason}, nil
}

// NegotiateRaw performs the wire-level negotiation with an arbitrary
// target: it sends the proposal over the plain path and decodes the
// resulting binding, its SCQoS tag encoded once for all its requests.
// Mediators that spread one logical relationship over several servers (load
// balancing, replication) establish their per-server bindings with it
// (Members).
func NegotiateRaw(ctx context.Context, o *orb.ORB, target *ior.IOR, proposal *Proposal) (*Binding, error) {
	e := cdr.AcquireEncoder(o.Order())
	proposal.Marshal(e)
	out, err := o.Invoke(ctx, &orb.Invocation{
		Target:           target,
		Operation:        opNegotiate,
		Args:             e.Bytes(),
		ResponseExpected: true,
		Order:            o.Order(),
	})
	e.Release()
	if err != nil {
		return nil, err
	}
	if err := out.Err(); err != nil {
		if ne, ok := decodeNegotiationError(err); ok {
			return nil, ne
		}
		return nil, err
	}
	d := out.Decoder()
	id, err := d.ReadString()
	if err != nil {
		return nil, fmt.Errorf("qos: decoding binding id: %w", err)
	}
	module, err := d.ReadString()
	if err != nil {
		return nil, fmt.Errorf("qos: decoding binding module: %w", err)
	}
	contract, err := unmarshalContract(d, proposal)
	if err != nil {
		return nil, fmt.Errorf("qos: decoding contract: %w", err)
	}
	return &Binding{
		ID:             id,
		Characteristic: contract.Characteristic,
		Contract:       contract,
		Module:         module,
		tag:            QoSTag{Characteristic: contract.Characteristic, BindingID: id, Module: module}.Encoded(),
	}, nil
}

// epochAttr renders a contract epoch as a span attribute. It formats the
// epoch only for a span that records: on a nil span the event is dropped
// anyway.
func epochAttr(span *obs.Span, epoch uint32) obs.Attr {
	if span == nil {
		return obs.Attr{}
	}
	return obs.Attr{Key: "epoch", Value: strconv.FormatUint(uint64(epoch), 10)}
}

// proposalFromContract rebuilds a proposal whose desired values are the
// agreed values of an existing contract (used to replicate a negotiated
// agreement onto further servers).
func proposalFromContract(c *Contract) *Proposal {
	p := &Proposal{Characteristic: c.Characteristic}
	for _, t := range c.Values {
		p.Params = append(p.Params, ParamProposal{Name: t.Name, Desired: t.Value})
	}
	return p
}

// Negotiate establishes a QoS binding for this stub: the proposal is sent
// over the plain path, the server resolves it against its offer, and on
// success the registry's mediator for the characteristic is attached to
// the stub. Any previous binding is released first.
func (s *Stub) Negotiate(ctx context.Context, proposal *Proposal) (*Binding, error) {
	ctx, span := s.orb.Tracer().StartSpan(ctx, "qos.negotiate")
	span.SetAttr("characteristic", proposal.Characteristic)
	defer span.End()
	metrics := s.orb.Metrics()
	metrics.Counter("maqs_negotiations_total").Inc()

	if old := s.Binding(); old != nil {
		if err := s.Release(ctx); err != nil {
			span.RecordError(err)
			return nil, fmt.Errorf("qos: releasing previous binding: %w", err)
		}
	}
	binding, err := NegotiateRaw(ctx, s.orb, s.Target(), proposal)
	if err != nil {
		metrics.Counter("maqs_negotiation_failures_total").Inc()
		span.RecordError(err)
		return nil, err
	}
	mediator, err := s.registry.mediatorFor(s, binding)
	if err != nil {
		// Roll the server-side binding back; the agreement cannot be
		// honoured without its client half.
		_ = releaseBinding(ctx, s.orb, s.Target(), binding)
		metrics.Counter("maqs_negotiation_failures_total").Inc()
		span.RecordError(err)
		return nil, fmt.Errorf("qos: attaching mediator: %w", err)
	}
	s.install(binding, mediator)
	span.AddEvent("contract.established",
		obs.Attr{Key: "binding", Value: binding.ID},
		obs.Attr{Key: "module", Value: binding.Module},
		epochAttr(span, binding.Contract.Epoch))
	metrics.Gauge("maqs_client_bindings").Add(1)
	return binding, nil
}

// Renegotiate adapts the current binding to a new proposal (the paper's
// QoS adaptation: renegotiation when resource availability changes).
func (s *Stub) Renegotiate(ctx context.Context, proposal *Proposal) (*Contract, error) {
	binding := s.Binding()
	if binding == nil {
		return nil, fmt.Errorf("qos: renegotiation without a binding")
	}
	ctx, span := s.orb.Tracer().StartSpan(ctx, "qos.renegotiate")
	span.SetAttr("characteristic", proposal.Characteristic)
	span.SetAttr("binding", binding.ID)
	defer span.End()
	s.orb.Metrics().Counter("maqs_renegotiations_total").Inc()
	e := cdr.AcquireEncoder(s.orb.Order())
	e.WriteString(binding.ID)
	proposal.Marshal(e)
	out, err := s.orb.Invoke(ctx, &orb.Invocation{
		Target:           s.Target(),
		Operation:        opRenegotiate,
		Args:             e.Bytes(),
		ResponseExpected: true,
		Order:            s.orb.Order(),
	})
	e.Release()
	if err != nil {
		span.RecordError(err)
		return nil, err
	}
	if err := out.Err(); err != nil {
		span.RecordError(err)
		if ne, ok := decodeNegotiationError(err); ok {
			return nil, ne
		}
		return nil, err
	}
	contract, err := unmarshalContract(out.Decoder(), proposal)
	if err != nil {
		span.RecordError(err)
		return nil, fmt.Errorf("qos: decoding renegotiated contract: %w", err)
	}

	// Swap in a copy rather than mutating the shared binding: concurrent
	// invocations hold the old snapshot and must not observe a contract
	// changing under them. A binding released or replaced meanwhile does
	// not take the contract, and its successor's mediator is not told.
	s.mu.Lock()
	current := s.binding != nil && s.binding.ID == binding.ID
	if current {
		fresh := *s.binding
		fresh.Contract = contract
		s.binding = &fresh
	}
	mediator := s.mediator
	s.mu.Unlock()
	if !current {
		err := fmt.Errorf("qos: binding %q released during renegotiation", binding.ID)
		span.RecordError(err)
		return nil, err
	}
	if am, ok := mediator.(AdaptiveMediator); ok {
		if err := am.ContractChanged(contract); err != nil {
			span.RecordError(err)
			return nil, fmt.Errorf("qos: mediator rejecting new contract: %w", err)
		}
	}
	span.AddEvent("contract.renegotiated", epochAttr(span, contract.Epoch))
	return contract, nil
}

// Release drops the current binding on both sides.
func (s *Stub) Release(ctx context.Context) error {
	mediator, binding := s.clearBinding()
	if rm, ok := mediator.(ReleasableMediator); ok {
		if err := rm.Close(); err != nil {
			return fmt.Errorf("qos: closing mediator: %w", err)
		}
	}
	if binding == nil {
		return nil
	}
	ctx, span := s.orb.Tracer().StartSpan(ctx, "qos.release")
	span.SetAttr("characteristic", binding.Characteristic)
	span.SetAttr("binding", binding.ID)
	defer span.End()
	s.orb.Metrics().Counter("maqs_releases_total").Inc()
	s.orb.Metrics().Gauge("maqs_client_bindings").Add(-1)
	err := releaseBinding(ctx, s.orb, s.Target(), binding)
	span.RecordError(err)
	return err
}

// bindingReleaser is the part of the QoS transport (installed as the ORB's
// router) that releaseBinding talks to; qos cannot import the transport
// package.
type bindingReleaser interface {
	ReleaseBinding(module, bindingID string)
}

// releaseBinding ends b on this side and on the server at target.
func releaseBinding(ctx context.Context, o *orb.ORB, target *ior.IOR, b *Binding) error {
	// A transport module may hold state for the binding (session keys):
	// it ends with the binding, whatever the server answers below.
	if r, ok := o.Router().(bindingReleaser); ok {
		r.ReleaseBinding(b.Module, b.ID)
	}
	e := cdr.AcquireEncoder(o.Order())
	e.WriteString(b.ID)
	out, err := o.Invoke(ctx, &orb.Invocation{
		Target:           target,
		Operation:        OpRelease,
		Args:             e.Bytes(),
		ResponseExpected: true,
		Order:            o.Order(),
	})
	e.Release()
	if err != nil {
		return err
	}
	return out.Err()
}

// queryOffers asks the stub's target which QoS characteristics it offers
// and at which parameter ranges, by characteristic: what NegotiatePlan
// plans against.
func (s *Stub) queryOffers(ctx context.Context) (map[string]*Offer, error) {
	out, err := s.orb.Invoke(ctx, &orb.Invocation{
		Target:           s.Target(),
		Operation:        opOffers,
		ResponseExpected: true,
		Order:            s.orb.Order(),
	})
	if err != nil {
		return nil, err
	}
	if err := out.Err(); err != nil {
		return nil, err
	}
	d := out.Decoder()
	n, err := d.ReadULong()
	if err != nil {
		return nil, fmt.Errorf("qos: decoding offer count: %w", err)
	}
	if n > 256 {
		return nil, fmt.Errorf("qos: offer count %d exceeds limit", n)
	}
	offers := make(map[string]*Offer, n)
	for i := uint32(0); i < n; i++ {
		offer, err := unmarshalOffer(d)
		if err != nil {
			return nil, err
		}
		offers[offer.Characteristic] = offer
	}
	return offers, nil
}
