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

// OpStats aggregates the spans of one stage/operation pair, keyed on
// /trace/ops by the stage name, qualified by ":operation" when the spans
// carry one.
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
	// ops holds the aggregation as registry cells: a "span" histogram per
	// (span, op) label pair and, named by the /trace/ops key, an error
	// counter. Its own registry, so /metrics stays the bundle's.
	ops *Registry
}

// defaultSpanCapacity bounds the ring when NewCollector is given a
// non-positive capacity.
const defaultSpanCapacity = 2048

// NewCollector constructs a collector retaining up to capacity spans.
func NewCollector(capacity int) *Collector {
	if capacity <= 0 {
		capacity = defaultSpanCapacity
	}
	return &Collector{ring: make([]SpanRecord, capacity), ops: NewRegistry()}
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
	c.ops.Histogram("span", nil, "span", r.Name, "op", r.Operation).Observe(r.Duration)
	if r.Err != "" {
		c.ops.Counter(opsKey(r.Name, r.Operation)).Inc()
	}
	c.mu.Unlock()
}

func opsKey(span, op string) string {
	if op == "" {
		return span
	}
	return span + ":" + op
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

// spansOf returns the retained spans of one trace, ordered by start time.
func (c *Collector) spansOf(traceID string) []SpanRecord {
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

// Operations derives the per-operation aggregation from the cells.
func (c *Collector) Operations() map[string]OpStats {
	out := make(map[string]OpStats)
	if c == nil {
		return out
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ops.histograms.Range(func(k, e any) bool {
		key, h := opsKey(k.(histKey).labels[1], k.(histKey).labels[3]), e.(*histEntry).h
		lo, hi := h.extremes()
		out[key] = OpStats{Count: h.observations(), Errors: c.ops.Counter(key).Value(),
			Total: time.Duration(h.sum.Load()), Min: time.Duration(lo), Max: time.Duration(hi)}
		return true
	})
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
	c.next, c.filled, c.total, c.ops = 0, false, 0, NewRegistry()
	clear(c.ring)
}
