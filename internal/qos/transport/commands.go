package transport

import (
	"context"
	"fmt"

	"maqs/internal/cdr"
	"maqs/internal/giop"
	"maqs/internal/ior"
	"maqs/internal/orb"
)

// Commands understood by the transport's static pseudo-object interface.
const (
	// cmdLoad loads a module: in (string name, sequence<string,string>
	// config), out void.
	cmdLoad = "load"
	// cmdUnload unloads a module: in string name.
	cmdUnload = "unload"
	// cmdList lists loaded modules: out sequence<string>.
	cmdList = "list"
)

// HandleCommand implements orb.CommandHandler: the server half of the
// command interpretation in Fig. 3. target == "" addresses the transport
// itself; otherwise the named module's dynamic interface serves the
// operation.
func (t *Transport) HandleCommand(target string, req *orb.ServerRequest) error {
	if target == "" {
		t.bump(func(c *DispatchCounts) { c.TransportCommands++ })
		return t.transportCommand(req)
	}
	t.bump(func(c *DispatchCounts) { c.ModuleCommands++ })
	mod, ok := t.Module(target)
	if !ok {
		return orb.NewSystemException(orb.ExcBadQoS, 60, "command for unloaded module %q", target)
	}
	dyn := mod.Dynamic()
	if dyn == nil {
		return orb.NewSystemException(orb.ExcNoImplement, 61, "module %q has no dynamic interface", target)
	}
	return dyn.Invoke(req)
}

func (t *Transport) transportCommand(req *orb.ServerRequest) error {
	switch req.Operation {
	case cmdLoad:
		d := req.In()
		name, err := d.ReadString()
		if err != nil {
			return orb.NewSystemException(orb.ExcMarshal, 62, "bad load command: %v", err)
		}
		config, err := readConfig(d)
		if err != nil {
			return orb.NewSystemException(orb.ExcMarshal, 62, "bad load config: %v", err)
		}
		if err := t.Load(name, config); err != nil {
			return orb.NewSystemException(orb.ExcBadQoS, 63, "%v", err)
		}
		return nil
	case cmdUnload:
		name, err := req.In().ReadString()
		if err != nil {
			return orb.NewSystemException(orb.ExcMarshal, 64, "bad unload command: %v", err)
		}
		if err := t.Unload(name); err != nil {
			return orb.NewSystemException(orb.ExcBadQoS, 65, "%v", err)
		}
		return nil
	case cmdList:
		names := t.loadedNames()
		req.Out.WriteULong(uint32(len(names)))
		for _, n := range names {
			req.Out.WriteString(n)
		}
		return nil
	default:
		return orb.NewSystemException(orb.ExcBadOperation, 66, "unknown transport command %q", req.Operation)
	}
}

func readConfig(d *cdr.Decoder) (map[string]string, error) {
	n, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	if n > 256 {
		return nil, fmt.Errorf("config size %d exceeds limit", n)
	}
	config := make(map[string]string, n)
	for i := uint32(0); i < n; i++ {
		k, err := d.ReadString()
		if err != nil {
			return nil, err
		}
		v, err := d.ReadString()
		if err != nil {
			return nil, err
		}
		config[k] = v
	}
	return config, nil
}

func writeConfig(e *cdr.Encoder, config map[string]string) {
	keys := make([]string, 0, len(config))
	for k := range config {
		keys = append(keys, k)
	}
	sortStrings(keys)
	e.WriteULong(uint32(len(keys)))
	for _, k := range keys {
		e.WriteString(k)
		e.WriteString(config[k])
	}
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Controller drives a remote transport's pseudo-object interface: the
// client side of module loading and control commands.
type Controller struct {
	orb    *orb.ORB
	target *ior.IOR
}

// NewController builds a controller addressing the transport co-located
// with the given object.
func NewController(o *orb.ORB, target *ior.IOR) *Controller {
	return &Controller{orb: o, target: target}
}

// command sends one command-tagged request.
func (c *Controller) command(ctx context.Context, module, op string, args []byte) (*orb.Outcome, error) {
	out, err := c.orb.Invoke(ctx, &orb.Invocation{
		Target:    c.target,
		Operation: op,
		Args:      args,
		Contexts: giop.ServiceContextList{}.
			With(giop.SCCommand, orb.EncodeCommandTarget(module)),
		ResponseExpected: true,
		Order:            c.orb.Order(),
	})
	if err != nil {
		return nil, err
	}
	if err := out.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Load asks the remote transport to load a module.
func (c *Controller) Load(ctx context.Context, name string, config map[string]string) error {
	e := cdr.AcquireEncoder(c.orb.Order())
	defer e.Release()
	e.WriteString(name)
	writeConfig(e, config)
	_, err := c.command(ctx, "", cmdLoad, e.Bytes())
	return err
}

// Unload asks the remote transport to unload a module.
func (c *Controller) Unload(ctx context.Context, name string) error {
	e := cdr.AcquireEncoder(c.orb.Order())
	defer e.Release()
	e.WriteString(name)
	_, err := c.command(ctx, "", cmdUnload, e.Bytes())
	return err
}

// List fetches the remote transport's loaded modules.
func (c *Controller) List(ctx context.Context) ([]string, error) {
	out, err := c.command(ctx, "", cmdList, nil)
	if err != nil {
		return nil, err
	}
	return readStringSeq(out.Decoder())
}

// ModuleCommand invokes an operation of a module's dynamic interface and
// returns a decoder over its result.
func (c *Controller) ModuleCommand(ctx context.Context, module, op string, args []byte) (*cdr.Decoder, error) {
	out, err := c.command(ctx, module, op, args)
	if err != nil {
		return nil, err
	}
	return out.Decoder(), nil
}

func readStringSeq(d *cdr.Decoder) ([]string, error) {
	n, err := d.ReadULong()
	if err != nil {
		return nil, fmt.Errorf("transport: reading sequence length: %w", err)
	}
	if n > 4096 {
		return nil, fmt.Errorf("transport: sequence length %d exceeds limit", n)
	}
	out := make([]string, 0, n)
	for i := uint32(0); i < n; i++ {
		s, err := d.ReadString()
		if err != nil {
			return nil, fmt.Errorf("transport: reading sequence element: %w", err)
		}
		out = append(out, s)
	}
	return out, nil
}
