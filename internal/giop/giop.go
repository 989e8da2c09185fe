// Package giop implements a GIOP-style message protocol: framed messages
// carrying CDR-encoded request and reply headers and bodies.
//
// The protocol mirrors the General Inter-ORB Protocol in structure — a
// fixed 12-octet header (magic, version, flags, message type, body size)
// followed by a CDR body — because the paper's QoS transport is defined by
// how it treats GIOP requests (service-request vs. command, QoS-aware vs.
// plain). Service contexts carry the QoS and command tags, exactly as the
// paper uses the CORBA request "in a dual fashion".
package giop

import (
	"bufio"
	"fmt"
	"io"
	"sync"

	"maqs/internal/cdr"
)

// Protocol identification.
const (
	// Magic starts every message.
	Magic = "GIOP"
	// VersionMajor and VersionMinor identify the protocol revision.
	VersionMajor = 1
	VersionMinor = 0
	// HeaderSize is the fixed size of the message header in octets.
	HeaderSize = 12
	// MaxMessageSize bounds the body size accepted from a peer.
	MaxMessageSize = 64 << 20 // 64 MiB
)

// MsgType enumerates GIOP message types.
type MsgType uint8

// Message types.
const (
	MsgRequest MsgType = iota
	MsgReply
	MsgCancelRequest
	MsgLocateRequest
	MsgLocateReply
	MsgCloseConnection
	MsgMessageError
)

var msgTypeNames = [...]string{
	"Request", "Reply", "CancelRequest", "LocateRequest",
	"LocateReply", "CloseConnection", "MessageError",
}

// String returns the GIOP name of the message type.
func (t MsgType) String() string {
	if int(t) < len(msgTypeNames) {
		return msgTypeNames[t]
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// ReplyStatus enumerates the outcome field of a Reply message.
type ReplyStatus uint32

// Reply statuses.
const (
	ReplyNoException ReplyStatus = iota
	ReplyUserException
	ReplySystemException
	ReplyLocationForward
)

var replyStatusNames = [...]string{
	"NO_EXCEPTION", "USER_EXCEPTION", "SYSTEM_EXCEPTION", "LOCATION_FORWARD",
}

// String returns the GIOP name of the reply status.
func (s ReplyStatus) String() string {
	if int(s) < len(replyStatusNames) {
		return replyStatusNames[s]
	}
	return fmt.Sprintf("ReplyStatus(%d)", uint32(s))
}

// LocateStatus enumerates the outcome field of a LocateReply message.
type LocateStatus uint32

// Locate statuses.
const (
	LocateUnknownObject LocateStatus = iota
	LocateObjectHere
	LocateObjectForward
)

// Message is a decoded GIOP message: its type, byte order and raw body.
type Message struct {
	Type  MsgType
	Order cdr.ByteOrder
	Body  []byte
}

// Decoder returns a CDR decoder positioned at the start of the body.
// Alignment is measured from the start of the body, matching Encoder
// output (the 12-octet header is not part of the CDR stream).
func (m *Message) Decoder() *cdr.Decoder {
	return cdr.NewDecoder(m.Body, m.Order)
}

// putHeader renders the fixed 12-octet GIOP header into dst[:HeaderSize].
func putHeader(dst []byte, t MsgType, order cdr.ByteOrder, size int, more bool) {
	copy(dst, Magic)
	dst[4] = VersionMajor
	dst[5] = VersionMinor
	dst[6] = byte(order) & 1
	if more {
		dst[6] |= flagMoreFragments
	}
	dst[7] = byte(t)
	if order == cdr.LittleEndian {
		dst[8], dst[9], dst[10], dst[11] = byte(size), byte(size>>8), byte(size>>16), byte(size>>24)
	} else {
		dst[8], dst[9], dst[10], dst[11] = byte(size>>24), byte(size>>16), byte(size>>8), byte(size)
	}
}

// framePool recycles the scratch buffers WriteMessage and writeFrame use to
// coalesce header and body into a single Write. Buffers above the cap are
// dropped rather than pooled (see cdr's pooling rationale).
var framePool = sync.Pool{New: func() any {
	framePoolMisses.Add(1)
	b := make([]byte, 0, 4096)
	return &b
}}

const maxPooledFrame = 64 << 10

// WriteMessage frames body as a GIOP message of the given type and writes
// it to w as a single Write call: one syscall per message, and no torn
// frames if the underlying transport interleaves writers.
func WriteMessage(w io.Writer, t MsgType, order cdr.ByteOrder, body []byte) error {
	return writeFrame(w, t, order, body, false)
}

// AcquireFrameEncoder returns a pooled CDR encoder with the 12-octet GIOP
// header already reserved: marshal the message body into it as usual (CDR
// alignment starts at the body, exactly as with a plain encoder), then hand
// it to WriteFrame. Release the encoder after WriteFrame returns.
func AcquireFrameEncoder(order cdr.ByteOrder) *cdr.Encoder {
	e := cdr.AcquireEncoder(order)
	e.Skip(HeaderSize)
	return e
}

// WriteFrame finalises the message built in e (an encoder from
// AcquireFrameEncoder) and writes it to w. The common case patches the
// header into the reserved prefix and issues exactly one Write — no copy,
// no allocation. Bodies larger than maxFragment (when > 0) are split into
// fragment frames, each itself a single write. WriteFrame does not release
// e; the caller does.
func WriteFrame(w io.Writer, t MsgType, e *cdr.Encoder, maxFragment int) error {
	frame := e.Bytes()
	body := frame[HeaderSize:]
	if maxFragment > 0 && len(body) > maxFragment {
		return WriteMessageFragmented(w, t, e.Order(), body, maxFragment)
	}
	if len(body) > MaxMessageSize {
		return fmt.Errorf("giop: message body %d exceeds limit", len(body))
	}
	putHeader(frame, t, e.Order(), len(body), false)
	observeFrameSize(len(frame))
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("giop: writing message: %w", err)
	}
	return nil
}

// ReadMessage reads one framed message from r.
func ReadMessage(r io.Reader) (*Message, error) {
	var hdr [HeaderSize]byte
	msg, more, err := readFrameInto(r, hdr[:])
	if err != nil {
		return nil, err
	}
	if more {
		return nil, fmt.Errorf("giop: unexpected fragmented message")
	}
	return msg, nil
}

// FrameReader reads framed messages from one stream through a fixed read
// buffer, so a frame — or a burst of pipelined frames — costs one Read of
// the underlying stream instead of one for the header and one for the
// body; a body larger than the buffer is still read straight into place.
// The reader owns the stream from construction on: bytes it read ahead are
// lost to anyone else reading r. It is the allocation-conscious
// counterpart of ReadMessageReassembled for long-lived connections; it
// must only be used from one goroutine at a time (the per-connection read
// loop).
type FrameReader struct {
	r     *bufio.Reader
	hdr   [HeaderSize]byte
	reuse bool
	body  []byte
	msg   Message
}

// maxRetainedBody caps the body scratch a reusing FrameReader keeps
// between reads; a single oversized message must not pin its buffer for
// the connection's lifetime.
const maxRetainedBody = 64 << 10

// readBufferSize is the FrameReader's read-ahead: it holds a 32-deep burst
// of small requests, and larger frames bypass it for all but their head.
const readBufferSize = 4096

// NewFrameReader returns a FrameReader over r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: bufio.NewReaderSize(r, readBufferSize)}
}

// ReuseBody switches the reader into body-reuse mode: ReadMessage returns
// a *Message (and Body) that is only valid until the next ReadMessage
// call, in exchange for zero steady-state allocations per message. The
// per-connection read loops enable this and copy out whatever outlives
// the loop iteration; everything decoded from headers already copies.
func (fr *FrameReader) ReuseBody(on bool) { fr.reuse = on }

// ReadMessage reads one logical message, transparently reassembling
// fragmented frames. In ReuseBody mode the returned message aliases the
// reader's scratch buffer and is invalidated by the next call.
func (fr *FrameReader) ReadMessage() (*Message, error) {
	if !fr.reuse {
		return readReassembled(fr.r, fr.hdr[:])
	}
	return fr.readReuse()
}

// readReuse is the body-reusing twin of readReassembled: frame bodies
// (including fragment continuations) land in fr.body, which is grown on
// demand and retained across reads up to maxRetainedBody.
func (fr *FrameReader) readReuse() (*Message, error) {
	if cap(fr.body) > maxRetainedBody {
		fr.body = nil
	}
	t, order, more, size, err := readHeaderInto(fr.r, fr.hdr[:])
	if err != nil {
		return nil, err
	}
	if cap(fr.body) < int(size) {
		fr.body = make([]byte, size)
	}
	fr.body = fr.body[:size]
	if _, err := io.ReadFull(fr.r, fr.body); err != nil {
		return nil, fmt.Errorf("giop: reading body: %w", err)
	}
	if !more && t == MsgFragment {
		return nil, fmt.Errorf("giop: fragment without a preceding message")
	}
	for more {
		ft, forder, fmore, fsize, err := readHeaderInto(fr.r, fr.hdr[:])
		if err != nil {
			return nil, fmt.Errorf("giop: reading continuation fragment: %w", err)
		}
		if ft != MsgFragment {
			return nil, fmt.Errorf("giop: expected Fragment, found %v", ft)
		}
		if forder != order {
			return nil, fmt.Errorf("giop: fragment byte order changed mid-message")
		}
		off := len(fr.body)
		total := off + int(fsize)
		if total > MaxMessageSize {
			return nil, fmt.Errorf("giop: reassembled message %d exceeds limit", total)
		}
		if cap(fr.body) < total {
			grown := make([]byte, total)
			copy(grown, fr.body)
			fr.body = grown
		}
		fr.body = fr.body[:total]
		if _, err := io.ReadFull(fr.r, fr.body[off:]); err != nil {
			return nil, fmt.Errorf("giop: reading continuation fragment: %w", err)
		}
		more = fmore
	}
	fr.msg = Message{Type: t, Order: order, Body: fr.body}
	return &fr.msg, nil
}
