package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
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

// defaultLatencyBuckets are the fixed histogram bounds (seconds) used for
// round-trip and dispatch latency when no explicit bounds are given. They
// span in-memory netsim calls (tens of microseconds) up to WAN timeouts.
var defaultLatencyBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5,
}

// Histogram is a fixed-bucket latency histogram. Observations are single
// atomic increments (bucket + count + sum); bounds are immutable after
// construction. Nil-safe like Counter.
type Histogram struct {
	name     string
	bounds   []float64 // upper bounds in seconds, ascending
	buckets  []atomic.Uint64
	count    atomic.Uint64
	sumNanos atomic.Int64
	// exemplars retains, per bucket, the most recent traced observation:
	// the forensic link from a histogram tail to its flight record. The
	// slice parallels buckets; each slot swaps a whole *Exemplar so
	// readers never see a torn record.
	exemplars []atomic.Pointer[Exemplar]
}

// Exemplar links one bucket observation to the trace that produced it,
// so a p99 outlier on /metrics resolves to a span and a flight record.
type Exemplar struct {
	TraceID string `json:"trace_id"`
	SpanID  string `json:"span_id,omitempty"`
	// Value is the observed latency in seconds.
	Value float64 `json:"value"`
	// At is when the observation was made.
	At time.Time `json:"at"`
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.buckets[h.bucketIdx(d)].Add(1)
	h.count.Add(1)
	h.sumNanos.Add(int64(d))
}

// ObserveExemplar records one duration and, when traceID is non-empty,
// retains {traceID, spanID, value} as the bucket's exemplar. Untraced
// observations degrade to a plain Observe.
func (h *Histogram) ObserveExemplar(d time.Duration, traceID, spanID string) {
	if h == nil {
		return
	}
	i := h.bucketIdx(d)
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNanos.Add(int64(d))
	if traceID != "" && i < len(h.exemplars) {
		h.exemplars[i].Store(&Exemplar{TraceID: traceID, SpanID: spanID, Value: d.Seconds(), At: time.Now()})
	}
}

// bucketIdx finds the bucket for one observation.
func (h *Histogram) bucketIdx(d time.Duration) int {
	secs := d.Seconds()
	// Linear scan beats binary search for <=16 buckets and branch
	// predicts well since most observations land in the early buckets.
	i := 0
	for i < len(h.bounds) && secs > h.bounds[i] {
		i++
	}
	return i
}

// Count reads the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// BucketCount is one cumulative histogram bucket in a snapshot.
type BucketCount struct {
	// UpperBound is the inclusive upper bound in seconds; the overflow
	// bucket carries the infBound sentinel and renders as "+Inf" in both
	// the text exposition and JSON (as a string), so JSON consumers see
	// every bucket and can compute totals.
	UpperBound float64 `json:"le"`
	// Count is cumulative: observations less than or equal to UpperBound.
	Count uint64 `json:"count"`
	// Exemplar is the most recent traced observation that landed in this
	// bucket's raw (non-cumulative) range, if any.
	Exemplar *Exemplar `json:"exemplar,omitempty"`
}

// bucketCountJSON is the wire shape of BucketCount: le is a string so
// the overflow bucket can say "+Inf" (encoding/json rejects IEEE
// infinities as numbers).
type bucketCountJSON struct {
	UpperBound string    `json:"le"`
	Count      uint64    `json:"count"`
	Exemplar   *Exemplar `json:"exemplar,omitempty"`
}

// MarshalJSON renders the overflow bucket's bound as "+Inf" instead of
// the internal sentinel, keeping every bucket — including overflow —
// present and meaningful in JSON exports.
func (b BucketCount) MarshalJSON() ([]byte, error) {
	le := "+Inf"
	if b.UpperBound != infBound {
		le = strconv.FormatFloat(b.UpperBound, 'g', -1, 64)
	}
	return json.Marshal(bucketCountJSON{UpperBound: le, Count: b.Count, Exemplar: b.Exemplar})
}

// UnmarshalJSON accepts the string-bound wire shape produced by
// MarshalJSON, mapping "+Inf" back to the internal sentinel.
func (b *BucketCount) UnmarshalJSON(data []byte) error {
	var w bucketCountJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if w.UpperBound == "+Inf" {
		b.UpperBound = infBound
	} else {
		v, err := strconv.ParseFloat(w.UpperBound, 64)
		if err != nil {
			return fmt.Errorf("bucket le %q: %w", w.UpperBound, err)
		}
		b.UpperBound = v
	}
	b.Count = w.Count
	b.Exemplar = w.Exemplar
	return nil
}

// HistogramSnapshot is a consistent-enough view of one histogram (buckets
// are read without a global lock; totals may trail by an observation).
type HistogramSnapshot struct {
	Name    string        `json:"name"`
	Count   uint64        `json:"count"`
	Sum     float64       `json:"sum_seconds"`
	Buckets []BucketCount `json:"buckets"`
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
	histograms   sync.Map // string -> *Histogram
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

// Histogram returns the named histogram, creating it with the given
// bounds (defaultLatencyBuckets when bounds is nil) on first use. Bounds
// of an existing histogram are not changed.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	if v, ok := r.histograms.Load(name); ok {
		return v.(*Histogram)
	}
	if bounds == nil {
		bounds = defaultLatencyBuckets
	}
	h := &Histogram{
		name:      name,
		bounds:    append([]float64(nil), bounds...),
		buckets:   make([]atomic.Uint64, len(bounds)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(bounds)+1),
	}
	v, _ := r.histograms.LoadOrStore(name, h)
	return v.(*Histogram)
}

// CounterFunc registers a callback-backed counter: fn is evaluated at
// snapshot time. This lets packages that keep their own atomics (and
// must not import obs — cdr, giop) surface them without a copy loop.
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
		h := v.(*Histogram)
		hs := HistogramSnapshot{
			Name:    h.name,
			Count:   h.count.Load(),
			Sum:     time.Duration(h.sumNanos.Load()).Seconds(),
			Buckets: make([]BucketCount, 0, len(h.bounds)+1),
		}
		var cum uint64
		for i := range h.buckets {
			cum += h.buckets[i].Load()
			bound := infBound
			if i < len(h.bounds) {
				bound = h.bounds[i]
			}
			bc := BucketCount{UpperBound: bound, Count: cum}
			if i < len(h.exemplars) {
				bc.Exemplar = h.exemplars[i].Load()
			}
			hs.Buckets = append(hs.Buckets, bc)
		}
		s.Histograms = append(s.Histograms, hs)
		return true
	})
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// infBound stands in for +Inf in snapshots so the JSON encoding stays
// valid (encoding/json rejects IEEE infinities).
const infBound = float64(1 << 62)

// WriteText renders the snapshot in a Prometheus-style text exposition.
func (s Snapshot) WriteText(w io.Writer) error {
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "%s %d\n", n, s.Counters[n]); err != nil {
			return err
		}
	}
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "%s %d\n", n, s.Gauges[n]); err != nil {
			return err
		}
	}
	names = names[:0]
	for n := range s.Floats {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "%s %g\n", n, s.Floats[n]); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		// Histogram names may carry labels ("name{op=\"echo\"}"): the
		// suffix and the le label splice inside the existing brace set so
		// the exposition stays well-formed.
		base, labels := splitLabels(h.Name)
		for _, b := range h.Buckets {
			le := "+Inf"
			if b.UpperBound != infBound {
				le = fmt.Sprintf("%g", b.UpperBound)
			}
			all := fmt.Sprintf("le=%q", le)
			if labels != "" {
				all = labels + "," + all
			}
			// Exemplared buckets carry an OpenMetrics-style trailer:
			// `# {trace_id="...",span_id="..."} <seconds> <unix>` — the
			// forensic link from a tail bucket to its flight record.
			ex := ""
			if b.Exemplar != nil {
				ex = fmt.Sprintf(" # {trace_id=%q,span_id=%q} %g %.3f",
					b.Exemplar.TraceID, b.Exemplar.SpanID, b.Exemplar.Value,
					float64(b.Exemplar.At.UnixMilli())/1000)
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{%s} %d%s\n", base, all, b.Count, ex); err != nil {
				return err
			}
		}
		sumName, countName := base+"_sum", base+"_count"
		if labels != "" {
			sumName += "{" + labels + "}"
			countName += "{" + labels + "}"
		}
		if _, err := fmt.Fprintf(w, "%s %g\n%s %d\n", sumName, h.Sum, countName, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// splitLabels separates a metric name from its inline label set:
// `name{op="echo"}` → (`name`, `op="echo"`); names without labels come
// back unchanged with empty labels.
func splitLabels(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}
