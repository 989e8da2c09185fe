package transport

import (
	"context"
	"fmt"

	"maqs/internal/cdr"
	"maqs/internal/giop"
	"maqs/internal/obs"
	"maqs/internal/orb"
)

// Chain composes loaded modules into one: on the client side the first
// member transforms first (so a [flate, secure] chain compresses, then
// encrypts — the only order that preserves compressibility); the server
// side undoes the transforms in reverse for requests and applies them in
// order for replies.
//
// Chains answer the paper's composition question for transport-layer
// mechanisms: one binding can only name one module, so stacked QoS
// characteristics share a composite module.
type Chain struct {
	name    string
	members []Module
	spans   []string // "module.<member>" per member, for the send spans
	filter  orb.IncomingFilter
}

var (
	_ Module          = (*Chain)(nil)
	_ BindingReleaser = (*Chain)(nil)
)

// NewChain composes the given member modules under a name. Members are
// used, not owned: closing the chain does not close them.
func NewChain(name string, members ...Module) (*Chain, error) {
	if name == "" {
		return nil, fmt.Errorf("transport: chain needs a name")
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("transport: chain %q needs members", name)
	}
	c := &Chain{name: name, members: members, spans: make([]string, len(members))}
	filters := make([]orb.IncomingFilter, 0, len(members))
	for i, m := range members {
		c.spans[i] = "module." + m.Name()
		if f := m.ServerFilter(); f != nil {
			filters = append(filters, f)
		}
	}
	c.filter = &chainFilter{filters: filters}
	return c, nil
}

// RegisterChain registers a factory that, when the chain is loaded,
// ensures every member module is loaded (loading it with the chain's
// config when absent) and composes them. Member modules stay loaded and
// individually addressable — their dynamic interfaces (e.g. the secure
// module's handshake) keep working unchanged.
func (t *Transport) RegisterChain(name string, memberNames ...string) error {
	if len(memberNames) == 0 {
		return fmt.Errorf("transport: chain %q needs members", name)
	}
	members := append([]string(nil), memberNames...)
	return t.RegisterFactory(name, func(tr *Transport, config map[string]string) (Module, error) {
		resolved := make([]Module, 0, len(members))
		for _, m := range members {
			mod, ok := tr.Module(m)
			if !ok {
				if err := tr.Load(m, config); err != nil {
					return nil, fmt.Errorf("transport: chain %q loading member %q: %w", name, m, err)
				}
				mod, _ = tr.Module(m)
			}
			resolved = append(resolved, mod)
		}
		return NewChain(name, resolved...)
	})
}

// Name implements Module.
func (c *Chain) Name() string { return c.name }

// Members lists the member module names in order.
func (c *Chain) Members() []string {
	names := make([]string, len(c.members))
	for i, m := range c.members {
		names[i] = m.Name()
	}
	return names
}

// Send implements Module by nesting the members' Send implementations:
// member[0] is outermost, so its transform is applied first on the way
// out and undone last on the way back.
func (c *Chain) Send(ctx context.Context, inv *orb.Invocation, next Next) (*orb.Outcome, error) {
	return c.send(ctx, inv, next, 0)
}

func (c *Chain) send(ctx context.Context, inv *orb.Invocation, next Next, depth int) (*orb.Outcome, error) {
	if depth == len(c.members) {
		return next(ctx, inv)
	}
	member := c.members[depth]
	ctx, span := obs.StartChild(ctx, c.spans[depth])
	if span != nil {
		span.SetOperation(inv.Operation)
	}
	out, err := member.Send(ctx, inv, func(ctx context.Context, inner *orb.Invocation) (*orb.Outcome, error) {
		return c.send(ctx, inner, next, depth+1)
	})
	if span != nil {
		span.RecordError(err)
		span.End()
	}
	return out, err
}

// ServerFilter implements Module: requests are unwrapped innermost-first
// (reverse member order), replies wrapped in member order. The composite
// is built once with the chain.
func (c *Chain) ServerFilter() orb.IncomingFilter { return c.filter }

// ReleaseBinding implements BindingReleaser by telling every member that
// keeps per-binding state.
func (c *Chain) ReleaseBinding(bindingID string) {
	for _, m := range c.members {
		if r, ok := m.(BindingReleaser); ok {
			r.ReleaseBinding(bindingID)
		}
	}
}

type chainFilter struct {
	filters []orb.IncomingFilter
}

func (f *chainFilter) Inbound(req *orb.ServerRequest) error {
	for i := len(f.filters) - 1; i >= 0; i-- {
		if err := f.filters[i].Inbound(req); err != nil {
			return err
		}
	}
	return nil
}

func (f *chainFilter) Outbound(req *orb.ServerRequest, status giop.ReplyStatus, body []byte) ([]byte, error) {
	var err error
	for _, filter := range f.filters {
		if body, err = filter.Outbound(req, status, body); err != nil {
			return nil, err
		}
	}
	return body, nil
}

// Dynamic implements Module: the chain's own interface reports its
// members; member-specific operations stay addressable through the
// members themselves (they remain loaded).
func (c *Chain) Dynamic() *orb.DynamicServant {
	return &orb.DynamicServant{Ops: map[string]orb.DynamicOp{
		"chain_members": {
			Result: cdr.SequenceOf(cdr.TCString),
			Handler: func([]cdr.Any) (cdr.Any, error) {
				elems := make([]cdr.Any, 0, len(c.members))
				for _, m := range c.members {
					elems = append(elems, cdr.Str(m.Name()))
				}
				return cdr.NewAny(cdr.SequenceOf(cdr.TCString), elems), nil
			},
		},
	}}
}

// Close implements Module; members are not owned and stay loaded.
func (c *Chain) Close() error { return nil }
