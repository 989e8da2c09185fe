package giop

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"maqs/internal/cdr"
)

func TestMessageRoundTrip(t *testing.T) {
	for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
		e := cdr.NewEncoder(order)
		h := &RequestHeader{
			Contexts: ServiceContextList{
				{ID: SCQoS, Data: []byte{1, 2, 3}},
				{ID: SCCommand, Data: []byte("target")},
			},
			RequestID:        42,
			ResponseExpected: true,
			ObjectKey:        []byte("key/echo"),
			Operation:        "echo",
			Principal:        []byte("anon"),
		}
		h.Marshal(e)
		e.WriteString("argument payload")

		var buf bytes.Buffer
		if err := WriteMessage(&buf, MsgRequest, order, e.Bytes()); err != nil {
			t.Fatal(err)
		}
		msg, err := ReadMessage(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if msg.Type != MsgRequest {
			t.Fatalf("type = %v", msg.Type)
		}
		if msg.Order != order {
			t.Fatalf("order = %v, want %v", msg.Order, order)
		}
		d := msg.Decoder()
		got, err := UnmarshalRequestHeader(d)
		if err != nil {
			t.Fatal(err)
		}
		if got.RequestID != 42 || !got.ResponseExpected || got.Operation != "echo" {
			t.Fatalf("header = %+v", got)
		}
		if string(got.ObjectKey) != "key/echo" || string(got.Principal) != "anon" {
			t.Fatalf("header blobs = %+v", got)
		}
		if data, ok := got.Contexts.Get(SCQoS); !ok || !bytes.Equal(data, []byte{1, 2, 3}) {
			t.Fatalf("contexts = %+v", got.Contexts)
		}
		arg, err := d.ReadString()
		if err != nil || arg != "argument payload" {
			t.Fatalf("arg = %q, %v", arg, err)
		}
	}
}

func TestReplyHeaderRoundTrip(t *testing.T) {
	e := cdr.NewEncoder(cdr.BigEndian)
	h := &ReplyHeader{
		Contexts:  ServiceContextList{{ID: SCModule, Data: []byte("flate")}},
		RequestID: 7,
		Status:    ReplyUserException,
	}
	h.Marshal(e)
	got, err := UnmarshalReplyHeader(cdr.NewDecoder(e.Bytes(), cdr.BigEndian))
	if err != nil {
		t.Fatal(err)
	}
	if got.RequestID != 7 || got.Status != ReplyUserException {
		t.Fatalf("header = %+v", got)
	}
	if data, ok := got.Contexts.Get(SCModule); !ok || string(data) != "flate" {
		t.Fatalf("contexts = %+v", got.Contexts)
	}
}

func TestLocateRoundTrip(t *testing.T) {
	e := cdr.NewEncoder(cdr.LittleEndian)
	(&LocateRequestHeader{RequestID: 3, ObjectKey: []byte("k")}).Marshal(e)
	lr, err := UnmarshalLocateRequestHeader(cdr.NewDecoder(e.Bytes(), cdr.LittleEndian))
	if err != nil || lr.RequestID != 3 || string(lr.ObjectKey) != "k" {
		t.Fatalf("locate request = %+v, %v", lr, err)
	}

	// Only servers send LocateReplies, so the package decodes none: the
	// body is the request id and the status, two ulongs.
	e = cdr.NewEncoder(cdr.BigEndian)
	(&LocateReplyHeader{RequestID: 3, Status: LocateObjectHere}).Marshal(e)
	d := cdr.NewDecoder(e.Bytes(), cdr.BigEndian)
	id, err := d.ReadULong()
	if err != nil {
		t.Fatal(err)
	}
	status, err := d.ReadULong()
	if err != nil || id != 3 || LocateStatus(status) != LocateObjectHere {
		t.Fatalf("locate reply = id %d status %d, %v", id, status, err)
	}
}

func TestBadMagic(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("POOP")
	buf.Write(make([]byte, 8))
	if _, err := ReadMessage(&buf); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("err = %v", err)
	}
}

func TestBadVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, MsgRequest, cdr.BigEndian, nil); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[4] = 9
	if _, err := ReadMessage(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("err = %v", err)
	}
}

func TestOversizedMessageRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, MsgRequest, cdr.BigEndian, []byte{1}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// Patch the size field to something absurd.
	b[8], b[9], b[10], b[11] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := ReadMessage(bytes.NewReader(b)); err == nil {
		t.Fatal("oversized message accepted")
	}
}

func TestTruncatedBodyIsError(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, MsgReply, cdr.BigEndian, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, err := ReadMessage(bytes.NewReader(b[:len(b)-2])); err == nil {
		t.Fatal("truncated body accepted")
	}
}

func TestEOFPreserved(t *testing.T) {
	if _, err := ReadMessage(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream error = %v, want io.EOF", err)
	}
}

func TestServiceContextListOps(t *testing.T) {
	var l ServiceContextList
	l = l.With(1, []byte("a"))
	l = l.With(2, []byte("b"))
	l = l.With(1, []byte("c")) // replaces
	if len(l) != 2 {
		t.Fatalf("len = %d", len(l))
	}
	if d, ok := l.Get(1); !ok || string(d) != "c" {
		t.Fatalf("Get(1) = %q, %v", d, ok)
	}
	if _, ok := l.Get(99); ok {
		t.Fatal("Get(99) found something")
	}
}

func TestRequestHeaderRoundTripProperty(t *testing.T) {
	f := func(id uint32, resp bool, key []byte, op string, little bool) bool {
		order := cdr.BigEndian
		if little {
			order = cdr.LittleEndian
		}
		h := &RequestHeader{
			RequestID:        id,
			ResponseExpected: resp,
			ObjectKey:        key,
			Operation:        op,
		}
		e := cdr.NewEncoder(order)
		h.Marshal(e)
		got, err := UnmarshalRequestHeader(cdr.NewDecoder(e.Bytes(), order))
		if err != nil {
			return false
		}
		return got.RequestID == id && got.ResponseExpected == resp &&
			bytes.Equal(got.ObjectKey, key) && got.Operation == op
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMsgTypeString(t *testing.T) {
	if MsgRequest.String() != "Request" || MsgCloseConnection.String() != "CloseConnection" {
		t.Fatal("msg type names wrong")
	}
	if !strings.Contains(MsgType(99).String(), "99") {
		t.Fatal("unknown msg type name")
	}
	if ReplyNoException.String() != "NO_EXCEPTION" {
		t.Fatal("reply status name wrong")
	}
	if !strings.Contains(ReplyStatus(42).String(), "42") {
		t.Fatal("unknown reply status name")
	}
}

// countingReader counts the Read calls that reach the underlying stream.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestFrameReaderOneReadPerBurst: header and body of a frame — and every
// frame of a pipelined burst that arrived together — come out of one Read
// of the stream; a body larger than the read buffer still arrives intact.
func TestFrameReaderOneReadPerBurst(t *testing.T) {
	frame := func(body []byte) []byte {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, MsgRequest, cdr.BigEndian, body); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, reuse := range []bool{false, true} {
		var burst []byte
		for i := 0; i < 32; i++ {
			burst = append(burst, frame(bytes.Repeat([]byte{byte(i)}, 64))...)
		}
		src := &countingReader{r: bytes.NewReader(burst)}
		fr := NewFrameReader(src)
		fr.ReuseBody(reuse)
		for i := 0; i < 32; i++ {
			msg, err := fr.ReadMessage()
			if err != nil {
				t.Fatalf("reuse=%v frame %d: %v", reuse, i, err)
			}
			if !bytes.Equal(msg.Body, bytes.Repeat([]byte{byte(i)}, 64)) {
				t.Fatalf("reuse=%v frame %d: wrong body", reuse, i)
			}
		}
		if src.reads != 1 {
			t.Fatalf("reuse=%v: a 32-frame burst cost %d reads of the stream, want 1", reuse, src.reads)
		}
		if _, err := fr.ReadMessage(); err != io.EOF {
			t.Fatalf("reuse=%v: after the burst: %v, want io.EOF", reuse, err)
		}

		big := bytes.Repeat([]byte("0123456789abcdef"), 3*readBufferSize/16)
		stream := append(frame(big), frame([]byte("tail"))...)
		src = &countingReader{r: bytes.NewReader(stream)}
		fr = NewFrameReader(src)
		fr.ReuseBody(reuse)
		msg, err := fr.ReadMessage()
		if err != nil || !bytes.Equal(msg.Body, big) {
			t.Fatalf("reuse=%v: oversized body: err %v, %d of %d bytes", reuse, err, len(msg.Body), len(big))
		}
		if msg, err = fr.ReadMessage(); err != nil || string(msg.Body) != "tail" {
			t.Fatalf("reuse=%v: frame after an oversized body: %v", reuse, err)
		}
	}
}

// TestRequestHeaderUnmarshalAliases pins the two decode contracts: the
// Unmarshal method leaves ObjectKey, Principal and the context payloads in
// the decoder's buffer and decodes the context list into the array h already
// has, UnmarshalRequestHeader shares nothing with the buffer.
func TestRequestHeaderUnmarshalAliases(t *testing.T) {
	e := cdr.NewEncoder(cdr.BigEndian)
	(&RequestHeader{
		Contexts:  ServiceContextList{{ID: SCQoS, Data: []byte("ctx")}},
		RequestID: 9, ObjectKey: []byte("key"), Operation: "op", Principal: []byte("who"),
	}).Marshal(e)
	wire := append([]byte(nil), e.Bytes()...)

	h := RequestHeader{Contexts: make(ServiceContextList, 0, 4)}
	kept := &h.Contexts[:1][0]
	if err := h.Unmarshal(cdr.NewDecoder(wire, cdr.BigEndian), nil); err != nil {
		t.Fatal(err)
	}
	if len(h.Contexts) != 1 || &h.Contexts[0] != kept || string(h.Contexts[0].Data) != "ctx" {
		t.Fatalf("Unmarshal did not decode the contexts into h's own array: %+v", h.Contexts)
	}
	copied, err := UnmarshalRequestHeader(cdr.NewDecoder(wire, cdr.BigEndian))
	if err != nil {
		t.Fatal(err)
	}
	for i := range wire {
		wire[i] = 0xFF // the read loop's next frame
	}
	if string(h.ObjectKey) == "key" || string(h.Principal) == "who" || string(h.Contexts[0].Data) == "ctx" {
		t.Fatal("Unmarshal copied ObjectKey/Principal/context data; the read loop pays for that copy twice")
	}
	if h.Operation != "op" || h.RequestID != 9 {
		t.Fatalf("Unmarshal must copy the operation: %+v", h)
	}
	if string(copied.ObjectKey) != "key" || string(copied.Principal) != "who" || string(copied.Contexts[0].Data) != "ctx" {
		t.Fatalf("UnmarshalRequestHeader result shares the decoder's buffer: %+v", copied)
	}
}

// TestOperationNamesReuse: a connection that cycles a few operations
// allocates each name once; the table replaces round robin, and a name
// over maxOperationName is never kept.
func TestOperationNamesReuse(t *testing.T) {
	var ops OperationNames
	cycle := [][]byte{[]byte("_qos_negotiate"), []byte("echo"), []byte("_qos_release")}
	first := make([]string, len(cycle))
	for i, b := range cycle {
		first[i] = ops.intern(b)
	}
	for i, b := range cycle {
		if got := ops.intern(b); got != string(b) || unsafe.StringData(got) != unsafe.StringData(first[i]) {
			t.Fatalf("second %q was not the table's string", b)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, b := range cycle {
			ops.intern(b)
		}
	}); n != 0 {
		t.Fatalf("a cycle of known names allocates %.0f objects", n)
	}
	long := bytes.Repeat([]byte("x"), maxOperationName+1)
	if got := ops.intern(long); got != string(long) {
		t.Fatalf("long name decoded as %q", got)
	}
	for _, name := range ops.names {
		if len(name) > maxOperationName {
			t.Fatal("the table kept a name over maxOperationName")
		}
	}
	for i := 0; i < operationNamesEntries; i++ {
		ops.intern([]byte{'a' + byte(i)})
	}
	for _, name := range ops.names {
		if name == "echo" {
			t.Fatal("a full round of new names left an old one in the table")
		}
	}
	var none *OperationNames
	if got := none.intern([]byte("echo")); got != "echo" {
		t.Fatalf("nil table decoded %q", got)
	}
}
