package compression

import (
	"fmt"

	"maqs/internal/qos"
	"maqs/internal/qos/transport"
)

// Name is the characteristic name.
const Name = "Compression"

// ModuleName is the transport module implementing the mechanism.
const ModuleName = "flate"

// Parameter names.
const (
	// ParamLevel is the deflate level (1..9).
	ParamLevel = "level"
	// ParamMinSize is the minimum payload size worth compressing.
	ParamMinSize = "min_size"
	// ParamMaxRTTMs is the negotiated round-trip bound in milliseconds
	// (0 = unbounded). The characteristic itself does not enforce it:
	// PolicyFromContract turns it into a dispatch deadline, and the SLO
	// engine derives the latency objective from it and scores against it.
	ParamMaxRTTMs = qos.ContractMaxRTTMs
)

// Describe returns the characteristic descriptor.
func Describe() *qos.Characteristic {
	return &qos.Characteristic{
		Name:     Name,
		Category: qos.CategoryBandwidth,
		Params: []qos.ParameterDecl{
			{Name: ParamLevel, Kind: qos.KindNumber, Default: qos.Number(6)},
			{Name: ParamMinSize, Kind: qos.KindNumber, Default: qos.Number(128)},
			{Name: ParamMaxRTTMs, Kind: qos.KindNumber, Default: qos.Number(0)},
		},
		// All behaviour lives in the transport module; the
		// characteristic declares no application-layer QoS operations.
	}
}

// Register adds the characteristic to a registry. The mediator is nil:
// tagging plus the transport module carry the whole mechanism.
func Register(r *qos.Registry) error {
	if err := r.Register(Describe(), nil); err != nil {
		return fmt.Errorf("compression: %w", err)
	}
	return nil
}

// Impl is the server-side QoS implementation: it admits bindings and
// routes them through the flate module.
type Impl struct {
	qos.BaseImpl
}

// NewImpl constructs the server-side implementation with the given offer
// capacity (0 = unlimited).
func NewImpl(capacity int) *Impl {
	impl := &Impl{}
	impl.Desc = Describe()
	impl.Capability = &qos.Offer{
		Characteristic: Name,
		Capacity:       capacity,
		Params: []qos.ParamOffer{
			{Name: ParamLevel, Kind: qos.KindNumber, Min: 1, Max: 9, Default: qos.Number(6)},
			{Name: ParamMinSize, Kind: qos.KindNumber, Min: 0, Max: 1 << 20, Default: qos.Number(128)},
			{Name: ParamMaxRTTMs, Kind: qos.KindNumber, Min: 0, Max: 60_000, Default: qos.Number(0)},
		},
	}
	return impl
}

// BindingUp assigns the flate module to the binding, which makes every
// tagged request travel through it (paper Fig. 3, "QoS module assigned").
func (i *Impl) BindingUp(b *qos.Binding) error {
	b.Module = ModuleName
	return nil
}

// RegisterModule registers the flate module factory with a transport.
func RegisterModule(t *transport.Transport) error {
	if err := t.RegisterFactory(ModuleName, NewModule); err != nil {
		return fmt.Errorf("compression: %w", err)
	}
	return nil
}

// Setup wires the characteristic end to end on one side: module factory
// registered and module loaded. Call on both client and server.
func Setup(t *transport.Transport, config map[string]string) error {
	if err := RegisterModule(t); err != nil {
		return err
	}
	if err := t.Load(ModuleName, config); err != nil {
		return fmt.Errorf("compression: %w", err)
	}
	return nil
}
