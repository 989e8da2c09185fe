package encryption

import (
	"fmt"

	"maqs/internal/qos"
	"maqs/internal/qos/transport"
)

// Name is the characteristic name.
const Name = "Encryption"

// ModuleName is the transport module implementing the mechanism.
const ModuleName = "secure"

// ParamCipher names the parameter selecting the payload AEAD; its tag
// is the integrity check, so no MAC is chosen beside it.
const ParamCipher = "cipher"

// CipherAES256GCM is the one cipher offered.
const CipherAES256GCM = "aes-256-gcm"

// Describe returns the characteristic descriptor.
func Describe() *qos.Characteristic {
	return &qos.Characteristic{
		Name:     Name,
		Category: qos.CategoryPrivacy,
		Params: []qos.ParameterDecl{
			{Name: ParamCipher, Kind: qos.KindString, Default: qos.Text(CipherAES256GCM)},
		},
	}
}

// Register adds the characteristic to a registry (no mediator: the
// transport module carries the mechanism).
func Register(r *qos.Registry) error {
	if err := r.Register(Describe(), nil); err != nil {
		return fmt.Errorf("encryption: %w", err)
	}
	return nil
}

// Impl is the server-side QoS implementation.
type Impl struct {
	qos.BaseImpl
	// Transport is the server's QoS transport. When set (before the
	// skeleton serves requests), releasing a binding drops and wipes its
	// session keys in the secure module; when nil the keys stay until the
	// module closes or a drop_session command names them.
	Transport *transport.Transport
}

// NewImpl constructs the server-side implementation.
func NewImpl(capacity int) *Impl {
	impl := &Impl{}
	impl.Desc = Describe()
	impl.Capability = &qos.Offer{
		Characteristic: Name,
		Capacity:       capacity,
		Params: []qos.ParamOffer{
			{Name: ParamCipher, Kind: qos.KindString, Choices: []string{CipherAES256GCM}, Default: qos.Text(CipherAES256GCM)},
		},
	}
	return impl
}

// BindingUp assigns the secure module to the binding.
func (i *Impl) BindingUp(b *qos.Binding) error {
	b.Module = ModuleName
	return nil
}

// BindingDown ends the binding's session in the secure module.
func (i *Impl) BindingDown(b *qos.Binding) {
	if i.Transport != nil {
		i.Transport.ReleaseBinding(b.Module, b.ID)
	}
}

// RegisterModule registers the secure module factory with a transport.
func RegisterModule(t *transport.Transport) error {
	if err := t.RegisterFactory(ModuleName, NewModule); err != nil {
		return fmt.Errorf("encryption: %w", err)
	}
	return nil
}

// Setup registers and loads the secure module on one side.
func Setup(t *transport.Transport, config map[string]string) error {
	if err := RegisterModule(t); err != nil {
		return err
	}
	if err := t.Load(ModuleName, config); err != nil {
		return fmt.Errorf("encryption: %w", err)
	}
	return nil
}
