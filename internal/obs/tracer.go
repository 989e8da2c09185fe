package obs

import (
	"context"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span or event.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Event is a point-in-time marker inside a span (e.g. a contract epoch
// change during renegotiation).
type Event struct {
	Name  string    `json:"name"`
	At    time.Time `json:"at"`
	Attrs []Attr    `json:"attrs,omitempty"`
}

// Span is one recording stage of an invocation. A nil *Span is the
// disabled fast path: every method is a no-op on it, so instrumented
// code needs no "is tracing on" branches beyond the one at creation.
type Span struct {
	tracer       *Tracer
	sc           SpanContext
	parent       SpanID
	remoteParent bool
	name         string
	start        time.Time
	// ret, when armed (CaptureReturn), accumulates compact summaries of
	// this span and its children for the reply-direction SCTraceReturn
	// service context. Children inherit the capture.
	ret *returnCapture

	mu     sync.Mutex
	op     string
	attrs  []Attr
	events []Event
	errMsg string
	ended  bool
}

// Context returns the span's propagation context (zero when nil).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// SetOperation records the application operation the span serves.
func (s *Span) SetOperation(op string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.op = op
	s.mu.Unlock()
}

// SetAttr annotates the span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// AddEvent records a point-in-time event on the span.
func (s *Span) AddEvent(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.events = append(s.events, Event{Name: name, At: time.Now(), Attrs: attrs})
	s.mu.Unlock()
}

// RecordError marks the span failed. A nil err is ignored, so callers
// can record unconditionally.
func (s *Span) RecordError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.errMsg = err.Error()
	s.mu.Unlock()
}

// Child starts a sub-span sharing the trace ID. On a nil receiver it
// returns nil, keeping the disabled path free.
func (s *Span) Child(name string) *Span {
	if s == nil || s.tracer == nil {
		return nil
	}
	sp := s.tracer.newSpan(name, s.sc.TraceID, s.sc.SpanID, false)
	sp.ret = s.ret
	return sp
}

// CaptureReturn arms the span (and every child created afterwards) to
// summarise itself on End into a buffer the server piggybacks on the
// reply's SCTraceReturn service context. Call before creating children.
func (s *Span) CaptureReturn() {
	if s == nil {
		return
	}
	s.ret = &returnCapture{}
}

// ReturnPayload encodes the captured span summaries for the reply's
// SCTraceReturn context, or nil when nothing was captured or the
// encoding exceeds the size budget.
func (s *Span) ReturnPayload() []byte {
	if s == nil || s.ret == nil {
		return nil
	}
	return s.ret.payload(s.sc.TraceID)
}

// End closes the span and hands it to the collector. Ending twice
// records once.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	rec := SpanRecord{
		TraceID:      s.sc.TraceID.String(),
		SpanID:       s.sc.SpanID.String(),
		Name:         s.name,
		Operation:    s.op,
		Start:        s.start,
		Duration:     time.Since(s.start),
		Err:          s.errMsg,
		Attrs:        s.attrs,
		Events:       s.events,
		RemoteParent: s.remoteParent,
	}
	s.mu.Unlock()
	if !s.parent.IsZero() {
		rec.ParentID = s.parent.String()
	}
	if s.ret != nil {
		s.ret.add(rec)
	}
	if s.tracer == nil {
		return
	}
	if s.tracer.sampler != nil {
		// A trace quiesces — and gets its keep/drop verdict — once its
		// decision-point span ends: the local root, or the remote-parented
		// server root that closes this process's part of the trace.
		s.tracer.sampler.offer(rec, s.parent.IsZero() || s.remoteParent)
		return
	}
	if s.tracer.collector != nil {
		s.tracer.collector.record(rec)
	}
}

// Tracer mints spans into a collector. A nil *Tracer is the disabled
// tracer: StartSpan returns the context unchanged and a nil span.
type Tracer struct {
	collector *Collector
	// sampler, when non-nil, intercepts finished spans for tail-based
	// keep/drop; only kept traces reach the collector.
	sampler *TailSampler
}

// NewTracer constructs a tracer recording into c.
func NewTracer(c *Collector) *Tracer { return &Tracer{collector: c} }

// setSampler routes finished spans through a tail sampler instead of
// recording them directly. Install before spans start; swapping samplers
// mid-trace strands the old sampler's pending entries.
func (t *Tracer) setSampler(s *TailSampler) {
	if t == nil {
		return
	}
	t.sampler = s
}

// Sampler returns the installed tail sampler, nil when sampling is off.
func (t *Tracer) Sampler() *TailSampler {
	if t == nil {
		return nil
	}
	return t.sampler
}

// Inject records a span that finished in another process (a summary
// returned on SCTraceReturn). It feeds the sampler's pending trace when
// one exists, otherwise follows the trace's verdict.
func (t *Tracer) Inject(rec SpanRecord) {
	if t == nil {
		return
	}
	if t.sampler != nil {
		t.sampler.inject(rec)
		return
	}
	if t.collector != nil {
		t.collector.record(rec)
	}
}

func (t *Tracer) newSpan(name string, trace TraceID, parent SpanID, remote bool) *Span {
	sp := &Span{
		tracer:       t,
		sc:           SpanContext{TraceID: trace, SpanID: newSpanID(), Sampled: true},
		parent:       parent,
		remoteParent: remote,
		name:         name,
		start:        time.Now(),
	}
	if t.sampler != nil {
		t.sampler.spanStarted(sp.sc.TraceID.String())
	}
	return sp
}

// StartSpan begins a span under the span already in ctx (same trace), or
// a fresh trace root when ctx carries none. The returned context carries
// the new span for StartChild further down the path.
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	var sp *Span
	if parent := SpanFromContext(ctx); parent != nil {
		sp = parent.Child(name)
	} else {
		sp = t.newSpan(name, newTraceID(), SpanID{}, false)
	}
	return contextWithSpan(ctx, sp), sp
}

// StartRemote begins a server-side span whose parent lives in another
// process (the wire span whose context arrived in the request's SCTrace
// service context). An invalid parent starts a fresh trace, so untraced
// clients still produce server-side spans. A valid parent that is
// explicitly unsampled returns nil: the client already decided this
// trace records nothing, and the server must not pay span cost for it.
func (t *Tracer) StartRemote(parent SpanContext, name string) *Span {
	if t == nil {
		return nil
	}
	if !parent.Valid() {
		return t.newSpan(name, newTraceID(), SpanID{}, false)
	}
	if !parent.Sampled {
		return nil
	}
	return t.newSpan(name, parent.TraceID, parent.SpanID, true)
}

// ctxKey keys the active span in a context.Context.
type ctxKey struct{}

// contextWithSpan returns ctx carrying sp.
func contextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sp)
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// StartChild begins a child of the span in ctx. When ctx carries no span
// (tracing off, or an uninstrumented entry point) it returns ctx and nil
// — the one-branch fast path every mid-stack stage uses.
func StartChild(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	sp := parent.Child(name)
	return contextWithSpan(ctx, sp), sp
}
