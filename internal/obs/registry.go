package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero-value methods on
// a nil *Counter are no-ops, so callers holding an instrument from an
// absent registry need no branching.
type Counter struct {
	name string
	v    atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add increases the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value reads the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down (live bindings, loaded
// modules, queue depths). Nil-safe like Counter.
type Gauge struct {
	name string
	v    atomic.Int64
}

// Set stores an absolute value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add shifts the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value reads the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Snapshot captures the registry's state for export.
type Snapshot struct {
	Counters map[string]uint64 `json:"counters"`
	Gauges   map[string]int64  `json:"gauges"`
	// Floats are callback-backed floating-point series (FloatFunc) —
	// cumulative seconds and similar fractional totals that fit neither
	// integer family.
	Floats     map[string]float64  `json:"floats,omitempty"`
	Histograms []HistogramSnapshot `json:"histograms"`
}

// Registry is the process-wide metrics registry. Instruments are created
// on first use and live forever; the hot path (instrument updates) is
// lock-free, and instrument lookup uses sync.Map so steady-state reads
// take no lock either.
type Registry struct {
	counters     sync.Map // string -> *Counter
	gauges       sync.Map // string -> *Gauge
	histograms   sync.Map // histKey -> *histEntry
	counterFuncs sync.Map // string -> func() uint64
	gaugeFuncs   sync.Map // string -> func() int64
	floatFuncs   sync.Map // string -> func() float64
}

// NewRegistry constructs an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter returns the named counter, creating it on first use. On a nil
// registry it returns nil, which is a valid no-op instrument.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if v, ok := r.counters.Load(name); ok {
		return v.(*Counter)
	}
	v, _ := r.counters.LoadOrStore(name, &Counter{name: name})
	return v.(*Counter)
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	if v, ok := r.gauges.Load(name); ok {
		return v.(*Gauge)
	}
	v, _ := r.gauges.LoadOrStore(name, &Gauge{name: name})
	return v.(*Gauge)
}

// histKey names one histogram cell: its family and up to two label pairs.
type histKey struct {
	name   string
	labels [4]string
}

// histEntry is one registered histogram cell with its rendering policy.
// The family and its label pairs stay apart, so rendering never parses a
// name.
type histEntry struct {
	name, labels, fullName string // labels renders as `k="v",…`
	bounds                 *Bounds
	h                      *Histogram
}

// Histogram returns the cell of family name with the given label pairs
// (key, value, …; at most two pairs), creating it with bounds — the
// latency bounds when nil — on first use. A hit allocates nothing; the
// bounds of an existing cell are not changed.
func (r *Registry) Histogram(name string, bounds *Bounds, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	k := histKey{name: name}
	copy(k.labels[:], labels)
	if v, ok := r.histograms.Load(k); ok {
		return v.(*histEntry).h
	}
	v, _ := r.histograms.LoadOrStore(k, newHistEntry(name, bounds, new(Histogram), labels))
	return v.(*histEntry).h
}

// Expose renders h, a histogram recorded outside any registry (a package
// variable of a layer that records before an ORB exists), as family name
// with bounds. Exposing a name again replaces the cell.
func (r *Registry) Expose(name string, bounds *Bounds, h *Histogram) {
	if r != nil {
		r.histograms.Store(histKey{name: name}, newHistEntry(name, bounds, h, nil))
	}
}

func newHistEntry(name string, bounds *Bounds, h *Histogram, labels []string) *histEntry {
	if bounds == nil {
		bounds = &latencyBounds
	}
	e := &histEntry{name: name, fullName: name, bounds: bounds, h: h}
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			e.labels += ","
		}
		e.labels += labels[i] + "=" + strconv.Quote(labels[i+1])
	}
	if e.labels != "" {
		e.fullName += "{" + e.labels + "}"
	}
	return e
}

// CounterFunc registers a callback-backed counter: fn is evaluated at
// snapshot time. This lets packages that keep their own atomics (the cdr
// and giop pools) surface them without a copy loop.
// Re-registering a name replaces the callback. No-op on a nil registry
// or nil fn.
func (r *Registry) CounterFunc(name string, fn func() uint64) {
	if r == nil || fn == nil {
		return
	}
	r.counterFuncs.Store(name, fn)
}

// gaugeFunc registers a callback-backed gauge, evaluated at snapshot
// time like CounterFunc.
func (r *Registry) gaugeFunc(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.gaugeFuncs.Store(name, fn)
}

// FloatFunc registers a callback-backed floating-point series, evaluated
// at snapshot time like CounterFunc. It carries fractional cumulative
// values — GC pause seconds, CPU seconds — that would truncate in the
// integer counter family.
func (r *Registry) FloatFunc(name string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.floatFuncs.Store(name, fn)
}

// Snapshot captures all instruments.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Counters: map[string]uint64{}, Gauges: map[string]int64{}}
	if r == nil {
		return s
	}
	r.counters.Range(func(k, v any) bool {
		s.Counters[k.(string)] = v.(*Counter).Value()
		return true
	})
	r.gauges.Range(func(k, v any) bool {
		s.Gauges[k.(string)] = v.(*Gauge).Value()
		return true
	})
	r.counterFuncs.Range(func(k, v any) bool {
		s.Counters[k.(string)] = v.(func() uint64)()
		return true
	})
	r.gaugeFuncs.Range(func(k, v any) bool {
		s.Gauges[k.(string)] = v.(func() int64)()
		return true
	})
	r.floatFuncs.Range(func(k, v any) bool {
		if s.Floats == nil {
			s.Floats = map[string]float64{}
		}
		s.Floats[k.(string)] = v.(func() float64)()
		return true
	})
	r.histograms.Range(func(_, v any) bool {
		s.Histograms = append(s.Histograms, v.(*histEntry).snapshot())
		return true
	})
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// WriteText renders the snapshot in a Prometheus-style text exposition.
func (s Snapshot) WriteText(w io.Writer) error {
	if err := writeSorted(w, s.Counters, "%s %d\n"); err != nil {
		return err
	}
	if err := writeSorted(w, s.Gauges, "%s %d\n"); err != nil {
		return err
	}
	if err := writeSorted(w, s.Floats, "%s %g\n"); err != nil {
		return err
	}
	for _, h := range s.Histograms {
		// The le label splices inside the cell's own label set, and _sum
		// and _count carry that set, so labeled lines stay well-formed.
		sep, set := "", ""
		if h.labels != "" {
			sep, set = ",", "{"+h.labels+"}"
		}
		for _, b := range h.Buckets {
			// Exemplared buckets carry an OpenMetrics-style trailer:
			// `# {trace_id="...",span_id="..."} <value> <unix>` — the
			// forensic link from a tail bucket to its flight record.
			ex := ""
			if x := b.Exemplar; x != nil {
				span := ""
				if !x.SpanID.IsZero() {
					span = x.SpanID.String()
				}
				ex = fmt.Sprintf(" # {trace_id=%q,span_id=%q} %g %.3f",
					x.TraceID.String(), span, x.Value, float64(x.At.UnixMilli())/1000)
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d%s\n", h.family, h.labels, sep, b.Le, b.Count, ex); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n%s_count%s %d\n", h.family, set, formatNum(h.Sum), h.family, set, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// writeSorted writes one line per series of m, in name order.
func writeSorted[V any](w io.Writer, m map[string]V, format string) error {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, format, n, m[n]); err != nil {
			return err
		}
	}
	return nil
}
