package obs

import (
	"encoding/hex"
	"errors"
	"math/rand/v2"
)

// TraceID identifies one end-to-end invocation across processes.
type TraceID [16]byte

// IsZero reports the invalid all-zero trace ID.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the ID as MarshalText does.
func (t TraceID) String() string { b, _ := t.MarshalText(); return string(b) }

// MarshalText renders the ID as 32 lowercase hex digits: IDs stay
// binary until JSON is written.
func (t TraceID) MarshalText() ([]byte, error) { return hex.AppendEncode(nil, t[:]), nil }

// UnmarshalText reads the 32 lowercase hex digits MarshalText writes.
func (t *TraceID) UnmarshalText(b []byte) error { return unhex(t[:], b) }

// SpanID identifies one stage within a trace.
type SpanID [8]byte

// IsZero reports the invalid all-zero span ID.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the ID as MarshalText does.
func (s SpanID) String() string { b, _ := s.MarshalText(); return string(b) }

// MarshalText renders the ID as 16 lowercase hex digits.
func (s SpanID) MarshalText() ([]byte, error) { return hex.AppendEncode(nil, s[:]), nil }

// UnmarshalText reads the 16 lowercase hex digits MarshalText writes.
func (s *SpanID) UnmarshalText(b []byte) error { return unhex(s[:], b) }

// errNotHex rejects text that is not an ID's lowercase hex digits.
var errNotHex = errors.New("obs: not an ID's lowercase hex digits")

// unhex fills dst from exactly 2·len(dst) lowercase hex digits.
func unhex(dst, src []byte) error {
	if len(src) != 2*len(dst) || !isLowerHex(src) {
		return errNotHex
	}
	_, err := hex.Decode(dst, src)
	return err
}

// orNil returns nil for a zero ID and the ID otherwise: JSON's omitempty
// never omits an array, so an optional ID field marshals through a pointer.
func orNil[ID TraceID | SpanID](id ID) *ID {
	var zero ID
	if id == zero {
		return nil
	}
	return &id
}

// SpanContext is the propagated part of a span: what travels inside the
// GIOP service context from caller to callee.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	Sampled bool
}

// Valid reports whether the context identifies a real span.
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// traceparentLen is the length of a version-00 traceparent:
// "00-" + 32 + "-" + 16 + "-" + 2.
const traceparentLen = 55

// Traceparent renders the context in the W3C traceparent format,
// version 00: "00-<trace-id>-<parent-id>-<trace-flags>". The returned
// bytes are the payload of the giop.SCTrace service context.
func (sc SpanContext) Traceparent() []byte {
	b := make([]byte, 0, traceparentLen)
	b = append(b, '0', '0', '-')
	b = hex.AppendEncode(b, sc.TraceID[:])
	b = append(b, '-')
	b = hex.AppendEncode(b, sc.SpanID[:])
	b = append(b, '-', '0')
	if sc.Sampled {
		b = append(b, '1')
	} else {
		b = append(b, '0')
	}
	return b
}

// ParseTraceparent decodes a traceparent payload. It accepts any version
// whose field layout matches version 00 (per the W3C forward-compat
// rule: longer payloads with the same prefix layout are tolerated) and
// rejects malformed or all-zero IDs.
func ParseTraceparent(data []byte) (SpanContext, bool) {
	if len(data) < traceparentLen {
		return SpanContext{}, false
	}
	if data[2] != '-' || data[35] != '-' || data[52] != '-' {
		return SpanContext{}, false
	}
	if data[0] == 'f' && data[1] == 'f' { // version 0xff is forbidden
		return SpanContext{}, false
	}
	if len(data) > traceparentLen && data[traceparentLen] != '-' {
		return SpanContext{}, false
	}
	// The W3C grammar is lowercase hex throughout, version included
	// (hex.Decode alone would admit uppercase and skip the version).
	var sc SpanContext
	var flags [1]byte
	if !isLowerHex(data[0:2]) || unhex(sc.TraceID[:], data[3:35]) != nil ||
		unhex(sc.SpanID[:], data[36:52]) != nil || unhex(flags[:], data[53:55]) != nil {
		return SpanContext{}, false
	}
	sc.Sampled = flags[0]&0x01 != 0
	if !sc.Valid() {
		return SpanContext{}, false
	}
	return sc, true
}

// isLowerHex reports whether b is entirely lowercase hex digits.
func isLowerHex(b []byte) bool {
	for _, c := range b {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// newTraceID draws a random non-zero trace ID. math/rand/v2's global
// generator is lock-free per P, which keeps ID generation off the
// invocation path's contention profile.
func newTraceID() TraceID {
	var t TraceID
	for t.IsZero() {
		hi, lo := rand.Uint64(), rand.Uint64()
		for i := 0; i < 8; i++ {
			t[i] = byte(hi >> (8 * i))
			t[8+i] = byte(lo >> (8 * i))
		}
	}
	return t
}

// newSpanID draws a random non-zero span ID.
func newSpanID() SpanID {
	var s SpanID
	for s.IsZero() {
		v := rand.Uint64()
		for i := 0; i < 8; i++ {
			s[i] = byte(v >> (8 * i))
		}
	}
	return s
}
