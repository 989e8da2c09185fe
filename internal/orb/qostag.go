package orb

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"maqs/internal/cdr"
	"maqs/internal/giop"
)

// QoSTag is the payload of the SCQoS service context: it marks a request
// as QoS-aware and names its binding. It lives in orb (qos re-exports it)
// because the ORB itself reads it: the router picks the transport module
// from it and the server labels dispatch telemetry with its characteristic.
type QoSTag struct {
	// Characteristic of the binding.
	Characteristic string
	// BindingID identifies the agreement.
	BindingID string
	// Module names the transport module the request should travel
	// through (empty: unassigned, use IIOP).
	Module string
}

// Encode renders the tag as a service context payload: a big-endian CDR
// encapsulation of the three names. The body is encoded in a pooled
// encoder with alignment counted from its byte-order flag, as inside an
// encapsulation, and copied once behind its length into a buffer of
// exactly the payload's size.
func (t QoSTag) Encode() []byte {
	e := cdr.AcquireEncoder(cdr.BigEndian)
	defer e.Release()
	e.WriteOctet(byte(cdr.BigEndian)) // the encapsulation's byte-order flag
	e.WriteString(t.Characteristic)
	e.WriteString(t.BindingID)
	e.WriteString(t.Module)
	body := e.Bytes()
	data := make([]byte, 4+len(body))
	binary.BigEndian.PutUint32(data, uint32(len(body)))
	copy(data[4:], body)
	return data
}

// decodeQoSTag parses an SCQoS payload.
func decodeQoSTag(data []byte) (QoSTag, error) {
	d, err := cdr.NewDecoder(data, cdr.BigEndian).BeginEncapsulation()
	if err != nil {
		return QoSTag{}, fmt.Errorf("orb: decoding QoS tag: %w", err)
	}
	var t QoSTag
	if t.Characteristic, err = d.ReadString(); err != nil {
		return QoSTag{}, fmt.Errorf("orb: decoding QoS tag characteristic: %w", err)
	}
	if t.BindingID, err = d.ReadString(); err != nil {
		return QoSTag{}, fmt.Errorf("orb: decoding QoS tag binding: %w", err)
	}
	if t.Module, err = d.ReadString(); err != nil {
		return QoSTag{}, fmt.Errorf("orb: decoding QoS tag module: %w", err)
	}
	return t, nil
}

// EncodedQoSTag is a tag together with the SCQoS payload it was encoded
// to (or decoded from) — the unit the one-decode-per-request rule works
// with. The client stub builds one per binding and tags every request
// with it, so the request path neither encodes nor decodes; everywhere
// else one is filled by the first reader of a request's tag and read by
// the rest. One reached through a pointer (a binding's, an invocation's)
// may be shared and is never written after it is built; one embedded in
// a pooled ServerRequest or dispatch job belongs to that request alone
// and is refilled in place (lookup).
type EncodedQoSTag struct {
	data []byte // the payload; identity (not content) keys the memo
	tag  QoSTag
	err  error // why data does not decode

	// alone backs the context list of a request that carries this tag and
	// nothing else (Encoded fills it, SetQoSTag hands it out). Every such
	// request of the binding shares it, which is safe because stages
	// replace an invocation's list (With, Without), never write through it.
	alone [1]giop.ServiceContext
}

// Encoded pairs the tag with its encoding.
func (t QoSTag) Encoded() *EncodedQoSTag {
	m := &EncodedQoSTag{data: t.Encode(), tag: t}
	m.alone[0] = giop.ServiceContext{ID: giop.SCQoS, Data: m.data}
	return m
}

// holds reports whether the memo was built from exactly these payload
// bytes. Keying on identity means a mediator or filter that swaps the
// SCQoS context for another payload (Contexts.With) simply misses and the
// new payload is decoded: nobody has to invalidate anything.
func (m *EncodedQoSTag) holds(data []byte) bool {
	return len(data) > 0 && len(m.data) == len(data) && &m.data[0] == &data[0]
}

func (m *EncodedQoSTag) decode(data []byte) {
	m.data = data
	m.tag, m.err = decodeQoSTag(data)
}

func (m *EncodedQoSTag) get() (QoSTag, bool, error) {
	if m.err != nil {
		return QoSTag{}, false, m.err
	}
	return m.tag, true, nil
}

// lookup returns the tag carried in ctxs, decoding it into the memo
// unless the memo already holds that payload. tagged is false for plain
// traffic. It writes the memo, so it is for embedded memos only.
func (m *EncodedQoSTag) lookup(ctxs giop.ServiceContextList) (tag QoSTag, tagged bool, err error) {
	data, ok := ctxs.Get(giop.SCQoS)
	if !ok {
		return QoSTag{}, false, nil
	}
	if !m.holds(data) {
		m.decode(data)
	}
	return m.get()
}

// Bounds of a connection's tag cache: a connection carries a few bindings
// at a time, and a tag is three short names.
const (
	tagCacheEntries = 8
	maxCachedTag    = 256 // payload bytes; a longer tag is decoded per request
)

// tagCache is one server connection's memory of the SCQoS payloads it has
// decoded, keyed by content: a binding's tag is the same bytes on every
// request, so after the first it costs a comparison, not a decoder and
// three strings. It remembers decodes, not bindings — whether the binding
// is still live is the skeleton's question, asked per request. Fixed size,
// round-robin replacement, its entries own their bytes; only the
// connection's read loop touches it.
type tagCache struct {
	entries [tagCacheEntries]EncodedQoSTag
	next    int
}

// fill seeds a request's fresh memo m with the tag carried in ctxs, so that
// every later lookup of the request hits m.
func (c *tagCache) fill(m *EncodedQoSTag, ctxs giop.ServiceContextList) {
	data, _ := ctxs.Get(giop.SCQoS)
	if len(data) == 0 {
		return // plain traffic, or an empty tag for lookup to refuse
	}
	for i := range c.entries {
		if bytes.Equal(c.entries[i].data, data) {
			m.data, m.tag = data, c.entries[i].tag
			return
		}
	}
	if m.decode(data); m.err == nil && len(data) <= maxCachedTag {
		e := &c.entries[c.next]
		e.data, e.tag = append(e.data[:0], data...), m.tag
		c.next = (c.next + 1) % tagCacheEntries
	}
}

// class names the request's QoS class for telemetry and admission: the
// negotiated characteristic, "none" for plain traffic, "invalid" for a
// tag that does not decode or names no characteristic.
func (m *EncodedQoSTag) class(ctxs giop.ServiceContextList) string {
	tag, tagged, err := m.lookup(ctxs)
	switch {
	case err != nil:
		return "invalid"
	case !tagged:
		return "none"
	case tag.Characteristic == "":
		return "invalid"
	}
	return tag.Characteristic
}
