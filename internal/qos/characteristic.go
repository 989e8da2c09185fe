package qos

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Category classifies a QoS characteristic (the paper's "multi-category"
// dimension: fault-tolerance, performance, bandwidth, timeliness,
// privacy, ...).
type Category string

// Categories from the paper's evaluation (§6).
const (
	CategoryFaultTolerance Category = "fault-tolerance"
	CategoryPerformance    Category = "performance"
	CategoryBandwidth      Category = "bandwidth"
	CategoryTimeliness     Category = "timeliness"
	CategoryPrivacy        Category = "privacy"
)

// ParameterDecl describes one QoS parameter of a characteristic, as
// declared in QIDL ("param unsigned short replicas = 2;").
type ParameterDecl struct {
	// Name of the parameter.
	Name string
	// Kind of its values.
	Kind ValueKind
	// Default applies when the proposal omits the parameter.
	Default Value
}

// Characteristic describes a QoS characteristic: the QIDL "qos"
// declaration made available at runtime.
type Characteristic struct {
	// Name identifies the characteristic ("Availability").
	Name string
	// Category classifies it.
	Category Category
	// Params are its declared parameters.
	Params []ParameterDecl
	// Operations lists the operations of its QoS responsibility
	// (mechanism management, QoS-to-QoS, aspect integration), i.e. the
	// ops the generated QoS skeleton accepts.
	Operations []string
}

// Param finds a parameter declaration by name.
func (c *Characteristic) Param(name string) (ParameterDecl, bool) {
	for _, p := range c.Params {
		if p.Name == name {
			return p, true
		}
	}
	return ParameterDecl{}, false
}

// Registry associates characteristic names with their descriptions and
// factories. The paper's genericity requirement — new characteristics are
// definable without framework changes — maps to registration here.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*registryEntry
}

type registryEntry struct {
	desc            *Characteristic
	mediatorFactory MediatorFactory
}

// MediatorFactory constructs the client-side mediator of a characteristic
// for one freshly negotiated binding.
type MediatorFactory func(st *Stub, b *Binding) (Mediator, error)

// NewRegistry constructs an empty characteristic registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*registryEntry)}
}

// Register adds a characteristic description with its mediator factory.
// The factory may be nil for characteristics that need no client-side
// behaviour beyond tagging.
func (r *Registry) Register(desc *Characteristic, mf MediatorFactory) error {
	if desc == nil || desc.Name == "" {
		return fmt.Errorf("qos: registering characteristic without a name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[desc.Name]; dup {
		return fmt.Errorf("qos: characteristic %q already registered", desc.Name)
	}
	r.entries[desc.Name] = &registryEntry{desc: desc, mediatorFactory: mf}
	return nil
}

// Lookup finds a characteristic description.
func (r *Registry) Lookup(name string) (*Characteristic, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	if !ok {
		return nil, false
	}
	return e.desc, true
}

// errUnregistered is mediatorFor's answer for a characteristic the
// client's registry does not know: no mediator can carry its binding.
var errUnregistered = errors.New("not registered")

// mediatorFor instantiates the mediator of the bound characteristic, or
// nil when the characteristic registered no factory.
func (r *Registry) mediatorFor(st *Stub, b *Binding) (Mediator, error) {
	r.mu.RLock()
	e, ok := r.entries[b.Characteristic]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("qos: characteristic %q %w", b.Characteristic, errUnregistered)
	}
	if e.mediatorFactory == nil {
		return nil, nil
	}
	return e.mediatorFactory(st, b)
}

// Names lists registered characteristics in sorted order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.entries))
	for n := range r.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// defaultRegistry is the process-wide registry used when no explicit one
// is supplied; the standard characteristics packages register themselves
// into it from their Register functions (not init, keeping registration
// explicit).
var defaultRegistry = NewRegistry()
