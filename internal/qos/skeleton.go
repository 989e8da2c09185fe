package qos

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"maqs/internal/cdr"
	"maqs/internal/obs"
	"maqs/internal/orb"
)

// Reserved operations handled by the server skeleton itself (the
// negotiation half of the QoS framework's infrastructure services). They
// travel over the plain path, which is what allows the initial
// negotiation before any QoS module is assigned.
const (
	// opNegotiate establishes a binding: in Proposal, out (bindingID,
	// Contract).
	opNegotiate = "_qos_negotiate"
	// opRenegotiate adapts a binding: in (bindingID, Proposal), out
	// Contract with incremented epoch.
	opRenegotiate = "_qos_renegotiate"
	// OpRelease drops a binding: in bindingID.
	OpRelease = "_qos_release"
	// opOffers lists the server's offers: out sequence<Offer>.
	opOffers = "_qos_offers"
)

// minorUnknownBinding is the BAD_QOS minor code of a request tagged with a
// binding the skeleton does not hold: released, or lost in a restart.
const minorUnknownBinding = 42

// ServerSkeleton realises the paper's server-side mapping (Fig. 2): it
// wraps the application servant, holds one QoS implementation per
// assigned characteristic, and per request either
//
//   - answers a framework operation (negotiation family),
//   - dispatches a QoS operation to the implementation that owns it —
//     but only when the request's binding negotiated that characteristic,
//     raising BAD_QOS otherwise, or
//   - brackets the application operation with the bound implementation's
//     Prolog and Epilog.
type ServerSkeleton struct {
	servant orb.Servant

	mu        sync.RWMutex
	impls     map[string]Impl   // by characteristic name
	opOwner   map[string]string // QoS operation → owning characteristic
	bindings  map[string]*Binding
	admitted  map[string]int // live bindings per characteristic
	admission *AdmissionController
}

var _ orb.Servant = (*ServerSkeleton)(nil)

// NewServerSkeleton wraps the application servant.
func NewServerSkeleton(servant orb.Servant) *ServerSkeleton {
	return &ServerSkeleton{
		servant:  servant,
		impls:    make(map[string]Impl),
		opOwner:  make(map[string]string),
		bindings: make(map[string]*Binding),
		admitted: make(map[string]int),
	}
}

// SetAdmission connects the skeleton to an admission controller: every
// successfully negotiated or renegotiated contract is folded into the
// controller's per-class dispatch policies, closing the loop between
// contract negotiation and the ORB's server-side admission control.
func (s *ServerSkeleton) SetAdmission(a *AdmissionController) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.admission = a
}

func (s *ServerSkeleton) observeContract(c *Contract) {
	s.mu.RLock()
	a := s.admission
	s.mu.RUnlock()
	if a != nil {
		a.Observe(c)
	}
}

// AddQoS assigns a QoS implementation to the server ("interface ...
// supports Characteristic" in QIDL). Operation names must not collide
// across characteristics.
func (s *ServerSkeleton) AddQoS(impl Impl) error {
	desc := impl.Characteristic()
	if desc == nil || desc.Name == "" {
		return fmt.Errorf("qos: implementation without characteristic descriptor")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.impls[desc.Name]; dup {
		return fmt.Errorf("qos: characteristic %q already assigned", desc.Name)
	}
	for _, op := range desc.Operations {
		if owner, taken := s.opOwner[op]; taken {
			return fmt.Errorf("qos: operation %q of %s collides with characteristic %s", op, desc.Name, owner)
		}
	}
	s.impls[desc.Name] = impl
	for _, op := range desc.Operations {
		s.opOwner[op] = desc.Name
	}
	return nil
}

// Characteristics lists the assigned characteristic names.
func (s *ServerSkeleton) Characteristics() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.impls))
	for n := range s.impls {
		names = append(names, n)
	}
	return names
}

// Impl returns the implementation assigned for a characteristic.
func (s *ServerSkeleton) Impl(characteristic string) (Impl, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	impl, ok := s.impls[characteristic]
	return impl, ok
}

// Binding resolves a binding ID.
func (s *ServerSkeleton) Binding(id string) (*Binding, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.bindings[id]
	return b, ok
}

// BindingCount reports live bindings of one characteristic.
func (s *ServerSkeleton) BindingCount(characteristic string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.admitted[characteristic]
}

// Invoke implements orb.Servant with the Fig. 2 dispatch.
func (s *ServerSkeleton) Invoke(req *orb.ServerRequest) error {
	switch req.Operation {
	case opNegotiate:
		return s.negotiate(req)
	case opRenegotiate:
		return s.renegotiate(req)
	case OpRelease:
		return s.release(req)
	case opOffers:
		return s.offers(req)
	}

	tag, tagged, err := req.QoSTag()
	if err != nil {
		return orb.NewSystemException(orb.ExcMarshal, 41, "malformed QoS tag: %v", err)
	}
	var binding *Binding
	if tagged {
		s.mu.RLock()
		binding = s.bindings[tag.BindingID]
		s.mu.RUnlock()
		if binding == nil {
			return orb.NewSystemException(orb.ExcBadQoS, minorUnknownBinding, "unknown binding %q", tag.BindingID)
		}
	}

	// QoS operations: only those of the actually negotiated
	// characteristic are processed; others raise an exception (paper
	// §3.3).
	s.mu.RLock()
	owner, isQoSOp := s.opOwner[req.Operation]
	s.mu.RUnlock()
	if isQoSOp {
		if binding == nil {
			return orb.NewSystemException(orb.ExcBadQoS, 43,
				"QoS operation %q without a negotiated binding", req.Operation)
		}
		if binding.Characteristic != owner {
			return orb.NewSystemException(orb.ExcBadQoS, 44,
				"operation %q belongs to %s but the binding negotiated %s",
				req.Operation, owner, binding.Characteristic)
		}
		s.mu.RLock()
		impl := s.impls[owner]
		s.mu.RUnlock()
		return impl.QoSOperation(req, binding)
	}

	// Application operation, bracketed by prolog and epilog when bound.
	if binding == nil {
		return s.invokeServant(req)
	}
	s.mu.RLock()
	impl := s.impls[binding.Characteristic]
	s.mu.RUnlock()
	if impl == nil {
		return orb.NewSystemException(orb.ExcBadQoS, 45,
			"binding %q names unassigned characteristic %s", binding.ID, binding.Characteristic)
	}
	if err := s.runProlog(req, impl, binding); err != nil {
		return err
	}
	invokeErr := s.invokeServant(req)
	if err := s.runEpilog(req, impl, binding, invokeErr); err != nil {
		return err
	}
	return invokeErr
}

// invokeServant runs the application operation under its own span.
func (s *ServerSkeleton) invokeServant(req *orb.ServerRequest) error {
	span := req.Span.Child("server.servant")
	span.SetOperation(req.Operation)
	err := s.servant.Invoke(req)
	span.RecordError(err)
	span.End()
	return err
}

// runProlog brackets the prolog stage with a span carrying the binding's
// characteristic and contract epoch.
func (s *ServerSkeleton) runProlog(req *orb.ServerRequest, impl Impl, binding *Binding) error {
	span := req.Span.Child("server.prolog")
	annotateBinding(span, binding)
	err := impl.Prolog(req, binding)
	span.RecordError(err)
	span.End()
	return err
}

// runEpilog brackets the epilog stage likewise.
func (s *ServerSkeleton) runEpilog(req *orb.ServerRequest, impl Impl, binding *Binding, invokeErr error) error {
	span := req.Span.Child("server.epilog")
	annotateBinding(span, binding)
	err := impl.Epilog(req, binding, invokeErr)
	span.RecordError(err)
	span.End()
	return err
}

// annotateBinding tags a span with the binding identity that makes
// contract epochs traceable across renegotiations.
func annotateBinding(span *obs.Span, binding *Binding) {
	if span == nil || binding == nil {
		return
	}
	span.SetAttr("characteristic", binding.Characteristic)
	span.SetAttr("binding", binding.ID)
	if binding.Contract != nil {
		span.SetAttr("epoch", strconv.FormatUint(uint64(binding.Contract.Epoch), 10))
	}
}

// offerFor returns the current offer of the characteristic a proposal
// names on the wire: nil when it is not assigned here or offers nothing.
func (s *ServerSkeleton) offerFor(characteristic []byte) *Offer {
	s.mu.RLock()
	impl := s.impls[string(characteristic)]
	s.mu.RUnlock()
	if impl == nil {
		return nil
	}
	return impl.Offer()
}

// negotiate implements opNegotiate.
func (s *ServerSkeleton) negotiate(req *orb.ServerRequest) error {
	proposal, offer, err := unmarshalProposal(req.In(), s.offerFor)
	if err != nil {
		return orb.NewSystemException(orb.ExcMarshal, 46, "bad proposal: %v", err)
	}
	s.mu.RLock()
	impl, ok := s.impls[proposal.Characteristic]
	s.mu.RUnlock()
	if !ok {
		return negotiationFailure(req, &NegotiationError{
			Characteristic: proposal.Characteristic,
			Reason:         "characteristic not supported by this object",
		})
	}
	if offer == nil {
		return negotiationFailure(req, &NegotiationError{
			Characteristic: proposal.Characteristic,
			Reason:         "no current offer",
		})
	}
	contract, err := resolve(proposal, offer)
	if err != nil {
		var negErr *NegotiationError
		if errors.As(err, &negErr) {
			return negotiationFailure(req, negErr)
		}
		return err
	}

	s.mu.Lock()
	if offer.Capacity > 0 && s.admitted[proposal.Characteristic] >= offer.Capacity {
		s.mu.Unlock()
		return negotiationFailure(req, &NegotiationError{
			Characteristic: proposal.Characteristic,
			Reason:         fmt.Sprintf("capacity %d exhausted", offer.Capacity),
		})
	}
	binding := &Binding{
		ID:             newBindingID(),
		Characteristic: proposal.Characteristic,
		Contract:       contract,
	}
	s.bindings[binding.ID] = binding
	s.admitted[proposal.Characteristic]++
	s.mu.Unlock()

	if err := impl.BindingUp(binding); err != nil {
		s.mu.Lock()
		s.dropLocked(binding)
		s.mu.Unlock()
		return negotiationFailure(req, &NegotiationError{
			Characteristic: proposal.Characteristic,
			Reason:         fmt.Sprintf("admission refused: %v", err),
		})
	}

	s.observeContract(contract)
	req.Span.AddEvent("qos.negotiate",
		obs.Attr{Key: "characteristic", Value: binding.Characteristic},
		obs.Attr{Key: "binding", Value: binding.ID},
		epochAttr(req.Span, contract.Epoch))
	req.Out.WriteString(binding.ID)
	req.Out.WriteString(binding.Module)
	contract.Marshal(req.Out)
	return nil
}

// renegotiate implements opRenegotiate: adaptation of an existing binding
// with a fresh proposal against the current offer.
func (s *ServerSkeleton) renegotiate(req *orb.ServerRequest) error {
	d := req.In()
	id, err := d.ReadStringView()
	if err != nil {
		return orb.NewSystemException(orb.ExcMarshal, 47, "bad renegotiation: %v", err)
	}
	proposal, offer, err := unmarshalProposal(d, s.offerFor)
	if err != nil {
		return orb.NewSystemException(orb.ExcMarshal, 47, "bad renegotiation proposal: %v", err)
	}
	s.mu.RLock()
	binding, ok := s.bindings[string(id)]
	s.mu.RUnlock()
	if !ok {
		return orb.NewSystemException(orb.ExcBadQoS, 48, "renegotiation of unknown binding %q", id)
	}
	if binding.Characteristic != proposal.Characteristic {
		return negotiationFailure(req, &NegotiationError{
			Characteristic: proposal.Characteristic,
			Reason:         fmt.Sprintf("binding is for %s", binding.Characteristic),
		})
	}
	s.mu.RLock()
	impl := s.impls[binding.Characteristic]
	s.mu.RUnlock()
	if offer == nil {
		return negotiationFailure(req, &NegotiationError{
			Characteristic: proposal.Characteristic,
			Reason:         "no current offer",
		})
	}
	contract, err := resolve(proposal, offer)
	if err != nil {
		var negErr *NegotiationError
		if errors.As(err, &negErr) {
			return negotiationFailure(req, negErr)
		}
		return err
	}

	// Swap in a fresh binding object instead of mutating the shared one:
	// requests already dispatched keep their consistent snapshot (old
	// contract, old epoch) while new requests resolve the adapted binding.
	// The offer was read unlocked, so the binding may have been released
	// or renegotiated meanwhile: only the binding resolved above is
	// replaced, which keeps a released one gone and lets only one of two
	// concurrent renegotiations mint the next epoch.
	s.mu.Lock()
	if s.bindings[binding.ID] != binding {
		s.mu.Unlock()
		return orb.NewSystemException(orb.ExcBadQoS, 48, "binding %q changed during renegotiation", binding.ID)
	}
	contract.Epoch = binding.Contract.Epoch + 1
	fresh := &Binding{
		ID:             binding.ID,
		Characteristic: binding.Characteristic,
		Contract:       contract,
		Module:         binding.Module,
	}
	s.bindings[fresh.ID] = fresh
	s.mu.Unlock()

	if err := impl.BindingUp(fresh); err != nil {
		s.mu.Lock()
		if s.bindings[fresh.ID] == fresh {
			s.bindings[fresh.ID] = binding
		}
		s.mu.Unlock()
		return negotiationFailure(req, &NegotiationError{
			Characteristic: proposal.Characteristic,
			Reason:         fmt.Sprintf("adaptation refused: %v", err),
		})
	}
	s.observeContract(contract)
	req.Span.AddEvent("qos.renegotiate",
		obs.Attr{Key: "characteristic", Value: binding.Characteristic},
		obs.Attr{Key: "binding", Value: binding.ID},
		epochAttr(req.Span, contract.Epoch))
	contract.Marshal(req.Out)
	return nil
}

// release implements OpRelease.
func (s *ServerSkeleton) release(req *orb.ServerRequest) error {
	id, err := req.In().ReadStringView()
	if err != nil {
		return orb.NewSystemException(orb.ExcMarshal, 49, "bad release: %v", err)
	}
	s.mu.Lock()
	binding, ok := s.bindings[string(id)]
	if ok {
		s.dropLocked(binding)
	}
	s.mu.Unlock()
	if !ok {
		return orb.NewSystemException(orb.ExcBadQoS, 50, "release of unknown binding %q", id)
	}
	s.mu.RLock()
	impl := s.impls[binding.Characteristic]
	s.mu.RUnlock()
	if impl != nil {
		impl.BindingDown(binding)
	}
	req.Span.AddEvent("qos.release",
		obs.Attr{Key: "characteristic", Value: binding.Characteristic},
		obs.Attr{Key: "binding", Value: binding.ID})
	return nil
}

// dropLocked forgets a live binding; s.mu is held.
func (s *ServerSkeleton) dropLocked(b *Binding) {
	delete(s.bindings, b.ID)
	if s.admitted[b.Characteristic] > 0 {
		s.admitted[b.Characteristic]--
	}
}

// offers implements opOffers.
func (s *ServerSkeleton) offers(req *orb.ServerRequest) error {
	s.mu.RLock()
	impls := make([]Impl, 0, len(s.impls))
	for _, impl := range s.impls {
		impls = append(impls, impl)
	}
	s.mu.RUnlock()
	offers := make([]*Offer, 0, len(impls))
	for _, impl := range impls {
		if o := impl.Offer(); o != nil {
			offers = append(offers, o)
		}
	}
	req.Out.WriteULong(uint32(len(offers)))
	for _, o := range offers {
		o.Marshal(req.Out)
	}
	return nil
}

// negotiationFailure encodes a NegotiationError as the user exception the
// client-side Negotiate decodes. The payload is always big-endian because
// user exception data carries no byte-order marker of its own.
func negotiationFailure(req *orb.ServerRequest, e *NegotiationError) error {
	_ = req
	enc := cdr.AcquireEncoder(cdr.BigEndian)
	defer enc.Release()
	enc.WriteString(e.Characteristic)
	enc.WriteString(e.Param)
	enc.WriteString(e.Reason)
	return &orb.UserException{RepoID: excNegotiationFailed, Data: bytes.Clone(enc.Bytes())}
}
