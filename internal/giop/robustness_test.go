package giop

import (
	"bytes"
	"math/rand"
	"testing"

	"maqs/internal/cdr"
)

// TestReadMessageNeverPanicsOnMutation flips random bytes of a valid
// message and asserts decoding fails cleanly or yields a well-formed
// message — never panics, never over-allocates.
func TestReadMessageNeverPanicsOnMutation(t *testing.T) {
	e := cdr.NewEncoder(cdr.BigEndian)
	h := &RequestHeader{
		Contexts:         ServiceContextList{{ID: SCQoS, Data: []byte("tagdata")}},
		RequestID:        7,
		ResponseExpected: true,
		ObjectKey:        []byte("some/key"),
		Operation:        "operate",
	}
	h.Marshal(e)
	e.WriteOctets([]byte("argument payload bytes"))
	var buf bytes.Buffer
	if err := WriteMessage(&buf, MsgRequest, cdr.BigEndian, e.Bytes()); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		mutated := append([]byte(nil), valid...)
		flips := 1 + rng.Intn(4)
		for f := 0; f < flips; f++ {
			pos := rng.Intn(len(mutated))
			mutated[pos] ^= byte(1 << rng.Intn(8))
		}
		msg, err := ReadMessage(bytes.NewReader(mutated))
		if err != nil {
			continue // clean rejection
		}
		// If framing survived, header decoding must also never panic.
		d := msg.Decoder()
		if hdr, err := UnmarshalRequestHeader(d); err == nil {
			_ = hdr.Operation
			_, _ = d.ReadOctets()
		}
	}
}

// TestReadMessageTruncations feeds every prefix of a valid message.
func TestReadMessageTruncations(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, MsgReply, cdr.LittleEndian, []byte("0123456789abcdef")); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	for n := 0; n < len(valid); n++ {
		if _, err := ReadMessage(bytes.NewReader(valid[:n])); err == nil {
			t.Fatalf("prefix of %d bytes decoded", n)
		}
	}
	if _, err := ReadMessage(bytes.NewReader(valid)); err != nil {
		t.Fatal(err)
	}
}

// TestRandomGarbageRejected feeds pure noise.
func TestRandomGarbageRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		garbage := make([]byte, rng.Intn(256))
		rng.Read(garbage)
		// Valid magic happens with probability ~2^-32; treat success as
		// suspicious only if the body claims gigabytes.
		msg, err := ReadMessage(bytes.NewReader(garbage))
		if err == nil && len(msg.Body) > MaxMessageSize {
			t.Fatalf("oversized body accepted: %d", len(msg.Body))
		}
	}
}

// TestServiceContextCountLimit rejects absurd context counts instead of
// allocating.
func TestServiceContextCountLimit(t *testing.T) {
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteULong(1 << 30) // context count
	if _, err := UnmarshalRequestHeader(cdr.NewDecoder(e.Bytes(), cdr.BigEndian)); err == nil {
		t.Fatal("absurd context count accepted")
	}
}

// FuzzRequestHeaderUnmarshal holds the server's in-place header decode
// (RequestHeader.Unmarshal into a reused, dirty struct: aliases the body,
// reuses the context array, takes the operation name from a table that
// already holds names) against the copying
// UnmarshalRequestHeader: on every input they fail together or agree field
// for field after consuming the same bytes, and nothing the in-place decode
// hands out can reach past the body.
func FuzzRequestHeaderUnmarshal(f *testing.F) {
	for _, h := range []RequestHeader{
		{RequestID: 7, ResponseExpected: true, ObjectKey: []byte("echo"), Operation: "echo"},
		{Contexts: ServiceContextList{{ID: SCQoS, Data: []byte{1, 2, 3}}, {ID: SCTrace, Data: []byte("00-aa-bb-01")}},
			RequestID: 42, ResponseExpected: true, ObjectKey: []byte("key/echo"), Operation: "echo", Principal: []byte("anon")},
		{Contexts: ServiceContextList{{ID: SCCommand}}, Operation: "_qos_negotiate"},
	} {
		for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
			e := cdr.NewEncoder(order)
			h.Marshal(e)
			e.WriteOctets([]byte("argument payload bytes"))
			f.Add(e.Bytes(), order == cdr.LittleEndian)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte, little bool) {
		order := cdr.BigEndian
		if little {
			order = cdr.LittleEndian
		}
		dc := cdr.NewDecoder(body, order)
		copied, errCopied := UnmarshalRequestHeader(dc)

		// The in-place decode reads a copy that sits in front of a guard
		// region and is clipped to the body's length.
		buf := append(append([]byte(nil), body...), bytes.Repeat([]byte{0xEE}, 64)...)
		own := buf[:len(body):len(body)]
		h := RequestHeader{
			Contexts:  append(make(ServiceContextList, 0, 4), ServiceContext{ID: 99, Data: []byte("stale")}),
			Operation: "echo", ObjectKey: []byte("stale"), Principal: []byte("stale"), RequestID: 1,
		}
		var ops OperationNames
		ops.intern([]byte("echo"))
		di := cdr.NewDecoder(own, order)
		errInPlace := h.Unmarshal(di, &ops)

		if (errCopied == nil) != (errInPlace == nil) {
			t.Fatalf("copying decode: %v; in-place decode: %v", errCopied, errInPlace)
		}
		if errCopied != nil {
			return
		}
		if dc.Pos() != di.Pos() {
			t.Fatalf("consumed %d bytes copying, %d in place", dc.Pos(), di.Pos())
		}
		if h.RequestID != copied.RequestID || h.ResponseExpected != copied.ResponseExpected ||
			h.Operation != copied.Operation || !bytes.Equal(h.ObjectKey, copied.ObjectKey) ||
			!bytes.Equal(h.Principal, copied.Principal) || len(h.Contexts) != len(copied.Contexts) {
			t.Fatalf("in place %+v\ncopied   %+v", h, *copied)
		}
		aliases := [][]byte{h.ObjectKey, h.Principal}
		for i, sc := range h.Contexts {
			if sc.ID != copied.Contexts[i].ID || !bytes.Equal(sc.Data, copied.Contexts[i].Data) {
				t.Fatalf("context %d: in place %+v, copied %+v", i, sc, copied.Contexts[i])
			}
			aliases = append(aliases, sc.Data)
		}
		for _, a := range aliases {
			if cap(a) != len(a) {
				t.Fatalf("a decoded field can be resliced %d bytes past its end", cap(a)-len(a))
			}
		}
		// Scribbling the body scribbles every field that views it.
		for i := range own {
			own[i] ^= 0xFF
		}
		for _, a := range aliases {
			if len(a) > 0 && !bytes.Contains(own, a) {
				t.Fatal("an in-place field is a copy, not a view of the body")
			}
		}
	})
}
