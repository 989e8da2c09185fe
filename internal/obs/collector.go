package obs

import (
	"sort"
	"sync"
	"time"
)

// SpanRecord is one finished span as stored by the collector and
// rendered by the /trace endpoint.
type SpanRecord struct {
	TraceID      string        `json:"trace_id"`
	SpanID       string        `json:"span_id"`
	ParentID     string        `json:"parent_id,omitempty"`
	RemoteParent bool          `json:"remote_parent,omitempty"`
	Name         string        `json:"name"`
	Operation    string        `json:"operation,omitempty"`
	Start        time.Time     `json:"start"`
	Duration     time.Duration `json:"duration_ns"`
	Err          string        `json:"error,omitempty"`
	Attrs        []Attr        `json:"attrs,omitempty"`
	Events       []Event       `json:"events,omitempty"`
}

// aggKey names one per-operation aggregation bucket: the stage name,
// qualified by the application operation when the span carries one.
func (r *SpanRecord) aggKey() string {
	if r.Operation == "" {
		return r.Name
	}
	return r.Name + ":" + r.Operation
}

// OpStats aggregates the spans of one stage/operation pair.
type OpStats struct {
	Count  uint64        `json:"count"`
	Errors uint64        `json:"errors"`
	Total  time.Duration `json:"total_ns"`
	Min    time.Duration `json:"min_ns"`
	Max    time.Duration `json:"max_ns"`
}

// Collector stores finished spans in a bounded ring (oldest spans are
// overwritten) and keeps a running per-operation aggregation that
// survives ring wrap-around.
type Collector struct {
	mu     sync.Mutex
	ring   []SpanRecord
	next   int
	filled bool
	total  uint64
	perOp  map[string]*OpStats
}

// defaultSpanCapacity bounds the ring when NewCollector is given a
// non-positive capacity.
const defaultSpanCapacity = 2048

// NewCollector constructs a collector retaining up to capacity spans.
func NewCollector(capacity int) *Collector {
	if capacity <= 0 {
		capacity = defaultSpanCapacity
	}
	return &Collector{ring: make([]SpanRecord, capacity), perOp: make(map[string]*OpStats)}
}

// record stores one finished span (called from Span.End).
func (c *Collector) record(r SpanRecord) {
	c.mu.Lock()
	c.ring[c.next] = r
	c.next++
	if c.next == len(c.ring) {
		c.next = 0
		c.filled = true
	}
	c.total++
	key := r.aggKey()
	agg, ok := c.perOp[key]
	if !ok {
		agg = &OpStats{Min: r.Duration, Max: r.Duration}
		c.perOp[key] = agg
	}
	agg.Count++
	if r.Err != "" {
		agg.Errors++
	}
	agg.Total += r.Duration
	if r.Duration < agg.Min {
		agg.Min = r.Duration
	}
	if r.Duration > agg.Max {
		agg.Max = r.Duration
	}
	c.mu.Unlock()
}

// Snapshot returns the retained spans, oldest first.
func (c *Collector) Snapshot() []SpanRecord {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.filled {
		return append([]SpanRecord(nil), c.ring[:c.next]...)
	}
	out := make([]SpanRecord, 0, len(c.ring))
	out = append(out, c.ring[c.next:]...)
	return append(out, c.ring[:c.next]...)
}

// Trace returns the retained spans of one trace, ordered by start time.
func (c *Collector) Trace(traceID string) []SpanRecord {
	spans := c.Snapshot()
	out := spans[:0]
	for _, s := range spans {
		if s.TraceID == traceID {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// Operations snapshots the per-operation aggregation.
func (c *Collector) Operations() map[string]OpStats {
	out := make(map[string]OpStats)
	if c == nil {
		return out
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, v := range c.perOp {
		out[k] = *v
	}
	return out
}

// TotalRecorded counts all spans ever recorded, including those the ring
// has since overwritten.
func (c *Collector) TotalRecorded() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// Reset drops retained spans and aggregations.
func (c *Collector) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.next = 0
	c.filled = false
	c.total = 0
	c.perOp = make(map[string]*OpStats)
	for i := range c.ring {
		c.ring[i] = SpanRecord{}
	}
}
