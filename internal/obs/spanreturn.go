package obs

import (
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"maqs/internal/cdr"
)

// SCTraceReturn payload limits. The context rides on every traced reply,
// so it is bounded twice: at most maxReturnSpans summaries are captured,
// and the encoding must fit defaultTraceReturnBudget bytes — over-budget
// spans are silently trimmed from the tail.
const (
	// defaultTraceReturnBudget caps the encoded SCTraceReturn payload.
	defaultTraceReturnBudget = 1024
	// maxReturnSpans caps how many span summaries one reply carries.
	maxReturnSpans = 16
	// traceReturnVersion is the payload's leading version octet.
	traceReturnVersion = 1
	// returnErrBudget truncates error strings in summaries.
	returnErrBudget = 120
)

// spanSummary is the compact span form carried on SCTraceReturn: enough
// to graft the server's dispatch/servant/epilog spans into the client's
// trace tree, nothing more (no attrs, no events).
type spanSummary struct {
	SpanID        SpanID
	ParentID      SpanID
	RemoteParent  bool
	Name          string
	Operation     string
	StartUnixNano int64
	DurationNano  int64
	Err           string
}

// returnCapture accumulates summaries of a server request's spans as
// they end. It is armed on the root dispatch span and inherited by its
// children, so the mutex sees every servant/prolog/epilog span.
type returnCapture struct {
	mu   sync.Mutex
	sums []spanSummary
}

// add summarises one finished span into the capture, bounded by
// maxReturnSpans (later spans drop silently — the budget rules anyway).
func (rc *returnCapture) add(rec SpanRecord) {
	sum := spanSummary{
		RemoteParent:  rec.RemoteParent,
		Name:          rec.Name,
		Operation:     rec.Operation,
		StartUnixNano: rec.Start.UnixNano(),
		DurationNano:  int64(rec.Duration),
		Err:           rec.Err,
	}
	if len(sum.Err) > returnErrBudget {
		sum.Err = sum.Err[:returnErrBudget]
	}
	if _, err := hex.Decode(sum.SpanID[:], []byte(rec.SpanID)); err != nil {
		return
	}
	if rec.ParentID != "" {
		if _, err := hex.Decode(sum.ParentID[:], []byte(rec.ParentID)); err != nil {
			return
		}
	}
	rc.mu.Lock()
	if len(rc.sums) < maxReturnSpans {
		rc.sums = append(rc.sums, sum)
	}
	rc.mu.Unlock()
}

// payload encodes the capture for the wire, nil when empty or when even
// a single summary cannot fit the budget.
func (rc *returnCapture) payload(trace TraceID) []byte {
	rc.mu.Lock()
	sums := make([]spanSummary, len(rc.sums))
	copy(sums, rc.sums)
	rc.mu.Unlock()
	return encodeTraceReturn(trace, sums, defaultTraceReturnBudget)
}

// encodeTraceReturn renders the SCTraceReturn payload: a CDR stream of
//
//	octet  version (1)
//	octets trace id (16)
//	ulong  span count
//	       per span: octets span id (8), octets parent id (8, zero for a
//	       local root), bool remote-parent, string name, string op,
//	       longlong start unix-nanos, longlong duration nanos, string err
//
// Summaries past the byte budget are trimmed from the tail; nil is
// returned when nothing fits (the reply then simply carries no context).
func encodeTraceReturn(trace TraceID, sums []spanSummary, budget int) []byte {
	if budget <= 0 {
		budget = defaultTraceReturnBudget
	}
	if len(sums) > maxReturnSpans {
		sums = sums[:maxReturnSpans]
	}
	for n := len(sums); n > 0; n-- {
		e := cdr.NewEncoder(cdr.BigEndian)
		e.WriteOctet(traceReturnVersion)
		e.WriteOctets(trace[:])
		e.WriteULong(uint32(n))
		for i := 0; i < n; i++ {
			s := &sums[i]
			e.WriteOctets(s.SpanID[:])
			e.WriteOctets(s.ParentID[:])
			e.WriteBool(s.RemoteParent)
			e.WriteString(s.Name)
			e.WriteString(s.Operation)
			e.WriteLongLong(s.StartUnixNano)
			e.WriteLongLong(s.DurationNano)
			e.WriteString(s.Err)
		}
		if e.Len() <= budget {
			return e.Bytes()
		}
	}
	return nil
}

// DecodeTraceReturn parses an SCTraceReturn payload back into span
// records ready for Tracer.Inject (hex ids, absolute start times).
func DecodeTraceReturn(data []byte) ([]SpanRecord, error) {
	d := cdr.NewDecoder(data, cdr.BigEndian)
	version, err := d.ReadOctet()
	if err != nil {
		return nil, err
	}
	if version != traceReturnVersion {
		return nil, fmt.Errorf("trace return: unsupported version %d", version)
	}
	traceRaw, err := d.ReadOctets()
	if err != nil {
		return nil, err
	}
	var trace TraceID
	if len(traceRaw) != len(trace) {
		return nil, fmt.Errorf("trace return: trace id is %d bytes, want %d", len(traceRaw), len(trace))
	}
	copy(trace[:], traceRaw)
	count, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	if count > maxReturnSpans {
		return nil, fmt.Errorf("trace return: %d spans exceeds cap %d", count, maxReturnSpans)
	}
	recs := make([]SpanRecord, 0, count)
	for i := uint32(0); i < count; i++ {
		var span, parent SpanID
		raw, err := d.ReadOctets()
		if err != nil {
			return nil, err
		}
		if len(raw) != len(span) {
			return nil, fmt.Errorf("trace return: span id is %d bytes, want %d", len(raw), len(span))
		}
		copy(span[:], raw)
		if raw, err = d.ReadOctets(); err != nil {
			return nil, err
		}
		if len(raw) != len(parent) {
			return nil, fmt.Errorf("trace return: parent id is %d bytes, want %d", len(raw), len(parent))
		}
		copy(parent[:], raw)
		remote, err := d.ReadBool()
		if err != nil {
			return nil, err
		}
		name, err := d.ReadString()
		if err != nil {
			return nil, err
		}
		op, err := d.ReadString()
		if err != nil {
			return nil, err
		}
		startNs, err := d.ReadLongLong()
		if err != nil {
			return nil, err
		}
		durNs, err := d.ReadLongLong()
		if err != nil {
			return nil, err
		}
		errMsg, err := d.ReadString()
		if err != nil {
			return nil, err
		}
		rec := SpanRecord{
			TraceID:      trace.String(),
			SpanID:       span.String(),
			RemoteParent: remote,
			Name:         name,
			Operation:    op,
			Start:        time.Unix(0, startNs),
			Duration:     time.Duration(durNs),
			Err:          errMsg,
		}
		if !parent.IsZero() {
			rec.ParentID = parent.String()
		}
		recs = append(recs, rec)
	}
	return recs, nil
}
