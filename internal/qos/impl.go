package qos

import (
	"maqs/internal/orb"
)

// Impl is the server-side QoS implementation of one characteristic — the
// "QoS-Impl" delegate of the paper's Fig. 2. The server skeleton routes
// QoS operations to it and brackets every application operation with its
// Prolog and Epilog.
type Impl interface {
	// Characteristic returns the descriptor (name, params, operations).
	Characteristic() *Characteristic
	// Offer states what this implementation can currently provide; the
	// negotiation resolves proposals against it.
	Offer() *Offer
	// BindingUp admits a freshly negotiated binding; returning an error
	// vetoes the agreement (e.g. NO_RESOURCES).
	BindingUp(b *Binding) error
	// BindingDown releases a binding's resources.
	BindingDown(b *Binding)
	// Prolog runs before the servant processes a request of this
	// binding.
	Prolog(req *orb.ServerRequest, b *Binding) error
	// Epilog runs after the servant processed the request; invokeErr is
	// the servant's error, if any. Epilog may rewrite the reply by
	// replacing req.Out.
	Epilog(req *orb.ServerRequest, b *Binding, invokeErr error) error
	// QoSOperation dispatches an operation of this characteristic's QoS
	// responsibility (management, QoS-to-QoS, aspect integration).
	QoSOperation(req *orb.ServerRequest, b *Binding) error
}

// BaseImpl provides no-op defaults for Impl; concrete implementations
// embed it (this is the generated "QoS skeleton" of the paper).
type BaseImpl struct {
	// Desc is the characteristic descriptor returned by Characteristic.
	Desc *Characteristic
	// Capability is the offer returned by Offer.
	Capability *Offer
}

var _ Impl = (*BaseImpl)(nil)

// Characteristic implements Impl.
func (i *BaseImpl) Characteristic() *Characteristic { return i.Desc }

// Offer implements Impl.
func (i *BaseImpl) Offer() *Offer { return i.Capability }

// BindingUp implements Impl by admitting everything.
func (i *BaseImpl) BindingUp(*Binding) error { return nil }

// BindingDown implements Impl as a no-op.
func (i *BaseImpl) BindingDown(*Binding) {}

// Prolog implements Impl as a no-op.
func (i *BaseImpl) Prolog(*orb.ServerRequest, *Binding) error { return nil }

// Epilog implements Impl as a no-op.
func (i *BaseImpl) Epilog(*orb.ServerRequest, *Binding, error) error { return nil }

// QoSOperation implements Impl by rejecting every operation; generated
// QoS skeletons override it with their dispatch table.
func (i *BaseImpl) QoSOperation(req *orb.ServerRequest, _ *Binding) error {
	return orb.NewSystemException(orb.ExcBadOperation, 40,
		"characteristic %s has no operation %q", i.Desc.Name, req.Operation)
}

// StateAccessor is the dedicated aspect-integration interface of the
// paper's replication discussion: a QoS characteristic that needs the
// server's encapsulated state (to initialise new replicas) obtains it
// through this interface instead of breaking into the object.
type StateAccessor interface {
	// GetState serialises the application state.
	GetState() ([]byte, error)
	// SetState installs a serialised application state.
	SetState(data []byte) error
}
