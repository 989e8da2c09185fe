package obs

import (
	"encoding/json"
	"sync"
)

// Observability bundles the cooperating pieces — metrics registry, span
// collector, tracer and flight recorder — that an ORB (or a whole
// System) shares. A nil *Observability disables everything at zero cost.
type Observability struct {
	// Registry holds the process's metric instruments.
	Registry *Registry
	// Collector retains finished spans.
	Collector *Collector
	// Tracer mints spans into Collector.
	Tracer *Tracer
	// Flight is the always-on invocation flight recorder (may be nil on
	// hand-built bundles; all recorder methods tolerate that).
	Flight *FlightRecorder
	// Sampler is the tail sampler gating Collector, nil when spans record
	// unconditionally (Config.TailSampling unset).
	Sampler *TailSampler
	// Profiler retains anomaly-triggered CPU/heap captures, nil when
	// profiling is off (Config.Profiling unset).
	Profiler *Profiler

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
	// SpanCapacity bounds the span collector ring
	// (defaultSpanCapacity when non-positive).
	SpanCapacity int
	// FlightCapacity bounds the flight-recorder ring
	// (defaultFlightCapacity when non-positive).
	FlightCapacity int
	// TailSampling, when non-nil, installs a tail sampler between tracer
	// and collector: spans buffer per trace and only kept traces reach
	// the collector. Nil preserves record-every-span behaviour.
	TailSampling *TailSamplingConfig
	// Profiling, when non-nil, enables anomaly-triggered CPU/heap
	// profiling keyed to flight dumps.
	Profiling *ProfilingConfig
}

// New constructs an enabled bundle with default sizing.
func New() *Observability { return NewWithConfig(Config{}) }

// NewWithConfig constructs a bundle sized by cfg. Go runtime telemetry
// (registerRuntimeMetrics) is registered on the bundle's registry.
func NewWithConfig(cfg Config) *Observability {
	c := NewCollector(cfg.SpanCapacity)
	o := &Observability{
		Registry:  NewRegistry(),
		Collector: c,
		Tracer:    NewTracer(c),
		Flight:    NewFlightRecorder(cfg.FlightCapacity, 0, 0),
	}
	if cfg.TailSampling != nil {
		o.Sampler = newTailSampler(c, o.Registry, *cfg.TailSampling)
		o.Tracer.setSampler(o.Sampler)
		// Anomalies pin their trace in the pending table so the policy
		// keeps it even when the spans themselves look healthy.
		o.Flight.onDump(func(_, _, traceID string) { o.Sampler.markAnomaly(traceID) })
	}
	if cfg.Profiling != nil {
		o.Profiler = newProfiler(o.Registry, *cfg.Profiling)
		o.Flight.onDump(o.Profiler.onAnomaly)
	}
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

// Snapshot captures registry, collector and flight-recorder state
// together.
func (o *Observability) Snapshot() BundleSnapshot {
	var b BundleSnapshot
	if o == nil {
		b.Operations = map[string]OpStats{}
		return b
	}
	b.Metrics = o.Registry.Snapshot()
	b.Operations = o.Collector.Operations()
	b.Spans = o.Collector.Snapshot()
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
