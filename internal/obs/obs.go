package obs

import (
	"encoding/json"
	"sync"
)

// Observability bundles the cooperating pieces — metrics registry,
// tracer, tail sampler and flight recorder — that an ORB (or a whole
// System) shares. A nil *Observability disables everything at zero cost.
type Observability struct {
	// Registry holds the process's metric instruments.
	Registry *Registry
	// Tracer mints spans; their records go to Sampler.
	Tracer *Tracer
	// Flight is the always-on invocation flight recorder (may be nil on
	// hand-built bundles; all recorder methods tolerate that).
	Flight *FlightRecorder
	// Sampler decides which traces are kept and keeps their spans.
	Sampler *TailSampler

	// health carries liveness/readiness state; created lazily so
	// literal-constructed bundles still work (see health.go).
	health lazyHealth

	// pages holds dynamically mounted debug endpoints (SetDebugPage);
	// the Handler consults it per request, so pages registered after the
	// handler is built still serve.
	pages sync.Map // string -> func() any
}

// SetDebugPage mounts fn's JSON-rendered return value at path on the
// debug Handler ("/slo", "/poolstats", ...). The callback runs per
// request; registering a path again replaces the page, a nil fn removes
// it. Paths already owned by the handler (/metrics, /trace, ...) are
// shadowed by the built-ins. No-op on a nil bundle.
func (o *Observability) SetDebugPage(path string, fn func() any) {
	if o == nil || path == "" || path == "/" {
		return
	}
	if fn == nil {
		o.pages.Delete(path)
		return
	}
	o.pages.Store(path, fn)
}

// Config sizes an Observability bundle. The zero value means defaults
// everywhere.
type Config struct {
	// SpanCapacity bounds the ring of kept spans
	// (defaultSpanCapacity when non-positive).
	SpanCapacity int
	// TailSampling sets the sampler's policy; nil keeps every trace
	// (HealthyKeepFraction 1).
	TailSampling *TailSamplingConfig
}

// New constructs an enabled bundle with default sizing.
func New() *Observability { return NewWithConfig(Config{}) }

// NewWithConfig constructs a bundle sized by cfg. Go runtime telemetry
// (registerRuntimeMetrics) is registered on the bundle's registry.
func NewWithConfig(cfg Config) *Observability {
	policy := TailSamplingConfig{HealthyKeepFraction: 1}
	if cfg.TailSampling != nil {
		policy = *cfg.TailSampling
	}
	reg := NewRegistry()
	s := newTailSampler(cfg.SpanCapacity, reg, policy)
	o := &Observability{
		Registry: reg,
		Tracer:   &Tracer{sampler: s},
		Flight:   NewFlightRecorder(0, 0, 0),
		Sampler:  s,
	}
	// Anomalies pin their trace in the pending table so the policy keeps
	// it even when the spans themselves look healthy.
	o.Flight.sampler = s
	registerRuntimeMetrics(o.Registry)
	return o
}

// BundleSnapshot is the full JSON export: metrics, per-operation span
// aggregation, retained spans, and the flight-recorder state.
type BundleSnapshot struct {
	Metrics    Snapshot           `json:"metrics"`
	Operations map[string]OpStats `json:"operations"`
	Spans      []SpanRecord       `json:"spans"`
	Flight     *FlightSnapshot    `json:"flight,omitempty"`
}

// Snapshot captures registry, kept-span and flight-recorder state
// together.
func (o *Observability) Snapshot() BundleSnapshot {
	var b BundleSnapshot
	if o == nil {
		b.Operations = map[string]OpStats{}
		return b
	}
	b.Metrics = o.Registry.Snapshot()
	b.Operations = o.Sampler.operations()
	b.Spans = o.Sampler.spans()
	if o.Flight != nil {
		fs := o.Flight.Snapshot(0)
		b.Flight = &fs
	}
	return b
}

// SnapshotJSON renders the full bundle snapshot as indented JSON.
func (o *Observability) SnapshotJSON() ([]byte, error) {
	return json.MarshalIndent(o.Snapshot(), "", "  ")
}
