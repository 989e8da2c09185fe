// Package transport implements the paper's QoS transport (§4, Fig. 3):
// the reflective extension of the ORB that administrates transport-layer
// QoS modules.
//
// The CORBA request is used in a dual fashion — as a service request or
// as a command to the QoS transport or one of its modules. Dispatch
// follows the paper's decision tree:
//
//	request not QoS-aware            → plain GIOP/IIOP module
//	QoS-aware command                → interpreted by transport / module
//	QoS-aware request, module known  → delivered through that QoS module
//	QoS-aware request, no module     → GIOP/IIOP fallback (this enables
//	                                   the initial negotiation)
//
// Modules are dynamically loadable: factories are registered by name and
// instantiated on a "load" command (the stdlib-only substitute for shared
// object loading, see DESIGN.md). Each module has a static interface —
// the transport's command set, modelled as a pseudo object — and a
// module-specific dynamic interface served through the DII.
package transport

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"maqs/internal/giop"
	"maqs/internal/obs"
	"maqs/internal/orb"
)

// Next continues delivery down to the plain GIOP/IIOP path.
type Next func(ctx context.Context, inv *orb.Invocation) (*orb.Outcome, error)

// Module is one transport-layer QoS mechanism (bandwidth adaptation,
// group communication, encryption, ...).
type Module interface {
	// Name identifies the module ("flate", "group", ...).
	Name() string
	// Send delivers a QoS-aware service request on the client side. next
	// is the underlying GIOP/IIOP delivery; Send may transform the
	// invocation, fan it out, or substitute its own wire protocol.
	Send(ctx context.Context, inv *orb.Invocation, next Next) (*orb.Outcome, error)
	// ServerFilter returns the module's server-side request/reply
	// transform, or nil when the module has none.
	ServerFilter() orb.IncomingFilter
	// Dynamic returns the module-specific dynamic interface, served
	// through the DII when commands address this module; nil when the
	// module has none.
	Dynamic() *orb.DynamicServant
	// Close releases module resources on unload.
	Close() error
}

// BindingReleaser is an optional Module extension for modules that keep
// per-binding state (the secure module's session keys): the transport
// tells them when a binding ended, so that state lives exactly as long as
// the binding.
type BindingReleaser interface {
	// ReleaseBinding drops whatever the module holds for the binding.
	ReleaseBinding(bindingID string)
}

// Factory instantiates a module from a configuration.
type Factory func(t *Transport, config map[string]string) (Module, error)

// loadedModule is one active module together with what the request path needs
// from it, derived once at load time instead of once per request: the
// orb.TransportModule view the router hands out and the server filter.
type loadedModule struct {
	module  Module
	adapter *moduleAdapter
	filter  orb.IncomingFilter // nil when the module has none
}

// DispatchCounts mirrors the branches of the paper's Fig. 3 decision
// tree; the benchmarks regenerate the figure from these.
type DispatchCounts struct {
	// PlainIIOP counts requests without QoS awareness.
	PlainIIOP uint64
	// QoSFallback counts QoS-aware requests delivered over IIOP because
	// no module is assigned or loaded.
	QoSFallback uint64
	// QoSModule counts QoS-aware requests delivered through a module.
	QoSModule uint64
	// TransportCommands counts commands interpreted by the transport.
	TransportCommands uint64
	// ModuleCommands counts commands interpreted by a module.
	ModuleCommands uint64
}

// Transport is the QoS transport: module registry, Fig. 3 router and
// command interpreter. Install it on an ORB with Install.
type Transport struct {
	orb *orb.ORB

	mu        sync.Mutex
	factories map[string]Factory
	modules   map[string]*loadedModule
	counts    DispatchCounts
}

var (
	_ orb.Router         = (*Transport)(nil)
	_ orb.CommandHandler = (*Transport)(nil)
	_ orb.IncomingFilter = (*Transport)(nil)
)

// Install creates the QoS transport and hooks it into the ORB: it becomes
// the client-side router, the server-side command handler, and a
// server-side filter applying module transforms.
func Install(o *orb.ORB) *Transport {
	t := &Transport{
		orb:       o,
		factories: make(map[string]Factory),
		modules:   make(map[string]*loadedModule),
	}
	o.SetRouter(t)
	o.SetCommandHandler(t)
	o.AddIncomingFilter(t)
	return t
}

// ORB returns the broker this transport extends.
func (t *Transport) ORB() *orb.ORB { return t.orb }

// RegisterFactory makes a module type loadable under the given name.
func (t *Transport) RegisterFactory(name string, f Factory) error {
	if name == "" || f == nil {
		return fmt.Errorf("transport: factory registration needs name and constructor")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.factories[name]; dup {
		return fmt.Errorf("transport: factory %q already registered", name)
	}
	t.factories[name] = f
	return nil
}

// Load instantiates and activates the named module (local equivalent of
// the "load" command).
func (t *Transport) Load(name string, config map[string]string) error {
	t.mu.Lock()
	factory, ok := t.factories[name]
	if !ok {
		t.mu.Unlock()
		return fmt.Errorf("transport: no factory for module %q", name)
	}
	if _, loaded := t.modules[name]; loaded {
		t.mu.Unlock()
		return fmt.Errorf("transport: module %q already loaded", name)
	}
	t.mu.Unlock()

	mod, err := factory(t, config)
	if err != nil {
		return fmt.Errorf("transport: constructing module %q: %w", name, err)
	}

	l := &loadedModule{
		module:  mod,
		adapter: &moduleAdapter{module: mod, next: t.orb.IIOPModule().Send, span: "module." + mod.Name()},
		filter:  mod.ServerFilter(),
	}

	t.mu.Lock()
	if _, loaded := t.modules[name]; loaded {
		t.mu.Unlock()
		_ = mod.Close() // lost a load race; drop ours
		return fmt.Errorf("transport: module %q already loaded", name)
	}
	t.modules[name] = l
	t.mu.Unlock()
	return nil
}

// Unload deactivates the named module.
func (t *Transport) Unload(name string) error {
	t.mu.Lock()
	l, ok := t.modules[name]
	delete(t.modules, name)
	t.mu.Unlock()
	if !ok {
		return fmt.Errorf("transport: module %q not loaded", name)
	}
	if err := l.module.Close(); err != nil {
		return fmt.Errorf("transport: closing module %q: %w", name, err)
	}
	return nil
}

// Module returns a loaded module.
func (t *Transport) Module(name string) (Module, bool) {
	l, ok := t.lookup(name)
	if !ok {
		return nil, false
	}
	return l.module, true
}

func (t *Transport) lookup(name string) (*loadedModule, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, ok := t.modules[name]
	return l, ok
}

// ReleaseBinding tells the named module — when it is loaded and keeps
// per-binding state — that the binding ended. The client stub calls it on
// release; server-side QoS implementations call it from BindingDown.
func (t *Transport) ReleaseBinding(module, bindingID string) {
	if module == "" {
		return
	}
	if l, ok := t.lookup(module); ok {
		if r, ok := l.module.(BindingReleaser); ok {
			r.ReleaseBinding(bindingID)
		}
	}
}

// Loaded lists loaded module names, sorted.
func (t *Transport) Loaded() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.modules))
	for n := range t.modules {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Counts snapshots the dispatch counters.
func (t *Transport) Counts() DispatchCounts {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts
}

// ResetCounts zeroes the dispatch counters (benchmark support).
func (t *Transport) ResetCounts() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts = DispatchCounts{}
}

// Route implements orb.Router with the client half of Fig. 3.
func (t *Transport) Route(inv *orb.Invocation) (orb.TransportModule, error) {
	iiop := t.orb.IIOPModule()

	// Commands travel to the peer over the plain path; they are
	// interpreted by the receiving transport.
	if _, isCommand := inv.Contexts.Get(giop.SCCommand); isCommand {
		return iiop, nil
	}

	tag, tagged, err := inv.QoSTag()
	if err != nil {
		return nil, fmt.Errorf("transport: malformed QoS tag: %w", err)
	}
	if !tagged {
		t.bump(func(c *DispatchCounts) { c.PlainIIOP++ })
		return iiop, nil
	}
	if tag.Module == "" {
		t.bump(func(c *DispatchCounts) { c.QoSFallback++ })
		return iiop, nil
	}
	l, ok := t.lookup(tag.Module)
	if !ok {
		// Unassigned or unavailable module: GIOP/IIOP fallback keeps the
		// relationship alive (and lets QoS mechanisms bootstrap).
		t.bump(func(c *DispatchCounts) { c.QoSFallback++ })
		return iiop, nil
	}
	t.bump(func(c *DispatchCounts) { c.QoSModule++ })
	return l.adapter, nil
}

func (t *Transport) bump(f func(*DispatchCounts)) {
	t.mu.Lock()
	f(&t.counts)
	t.mu.Unlock()
}

// moduleAdapter exposes a Module as an orb.TransportModule. One adapter
// serves every request routed to the module; it is stateless.
type moduleAdapter struct {
	module Module
	next   Next   // the plain GIOP/IIOP delivery underneath
	span   string // "module.<name>"
}

var _ orb.TransportModule = (*moduleAdapter)(nil)

func (a *moduleAdapter) Name() string { return a.module.Name() }

func (a *moduleAdapter) Send(ctx context.Context, inv *orb.Invocation) (*orb.Outcome, error) {
	ctx, span := obs.StartChild(ctx, a.span)
	if span == nil {
		return a.module.Send(ctx, inv, a.next)
	}
	span.SetOperation(inv.Operation)
	out, err := a.module.Send(ctx, inv, a.next)
	span.RecordError(err)
	span.End()
	return out, err
}

// Inbound implements orb.IncomingFilter: requests tagged with a loaded
// module run through that module's server filter.
func (t *Transport) Inbound(req *orb.ServerRequest) error {
	f, err := t.filterFor(req)
	if err != nil || f == nil {
		return err
	}
	return f.Inbound(req)
}

// Outbound implements orb.IncomingFilter.
func (t *Transport) Outbound(req *orb.ServerRequest, status giop.ReplyStatus, body []byte) ([]byte, error) {
	f, err := t.filterFor(req)
	if err != nil || f == nil {
		return body, err
	}
	return f.Outbound(req, status, body)
}

func (t *Transport) filterFor(req *orb.ServerRequest) (orb.IncomingFilter, error) {
	tag, tagged, err := req.QoSTag()
	if err != nil {
		return nil, fmt.Errorf("transport: malformed QoS tag: %w", err)
	}
	if !tagged || tag.Module == "" {
		return nil, nil
	}
	l, ok := t.lookup(tag.Module)
	if !ok {
		return nil, fmt.Errorf("transport: request assigned to unloaded module %q", tag.Module)
	}
	return l.filter, nil
}
