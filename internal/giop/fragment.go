package giop

import (
	"fmt"
	"io"

	"maqs/internal/cdr"
)

// MsgFragment continues a fragmented message (GIOP's mechanism for
// bounding individual frames). The header flags octet carries the
// "more fragments follow" bit alongside the byte-order bit.
const MsgFragment MsgType = 7

// flagMoreFragments marks a frame that is continued by a Fragment.
const flagMoreFragments = 0x02

// writeMessageFragmented frames body like WriteMessage but splits it into
// frames of at most maxFragment body octets: the first frame carries the
// message type, subsequent frames are Fragment messages, and all but the
// last set the more-fragments flag. maxFragment <= 0 disables splitting.
func writeMessageFragmented(w io.Writer, t MsgType, order cdr.ByteOrder, body []byte, maxFragment int) error {
	if maxFragment <= 0 || len(body) <= maxFragment {
		return WriteMessage(w, t, order, body)
	}
	offset := 0
	first := true
	for {
		end := offset + maxFragment
		more := end < len(body)
		if !more {
			end = len(body)
		}
		msgType := t
		if !first {
			msgType = MsgFragment
		}
		if err := writeFrame(w, msgType, order, body[offset:end], more); err != nil {
			return err
		}
		if !more {
			return nil
		}
		offset = end
		first = false
	}
}

// writeFrame writes one frame with the given more-fragments flag. Header
// and body are coalesced into a pooled scratch buffer and issued as a
// single Write: one syscall per frame, and no torn frames if the transport
// ever interleaves writers.
func writeFrame(w io.Writer, t MsgType, order cdr.ByteOrder, body []byte, more bool) error {
	if len(body) > MaxMessageSize {
		return fmt.Errorf("giop: fragment body %d exceeds limit", len(body))
	}
	framePoolGets.Add(1)
	bp := framePool.Get().(*[]byte)
	buf := *bp
	if cap(buf) < HeaderSize+len(body) {
		buf = make([]byte, 0, HeaderSize+len(body))
	}
	buf = buf[:HeaderSize]
	putHeader(buf, t, order, len(body), more)
	buf = append(buf, body...)
	observeFrameSize(len(buf))
	_, err := w.Write(buf)
	if cap(buf) <= maxPooledFrame {
		*bp = buf[:0]
		framePool.Put(bp)
	} else {
		framePoolOversize.Add(1)
	}
	if err != nil {
		return fmt.Errorf("giop: writing frame: %w", err)
	}
	return nil
}

// readHeaderInto reads and validates one frame header into hdr (len >=
// HeaderSize) and decodes its fields.
func readHeaderInto(r io.Reader, hdr []byte) (t MsgType, order cdr.ByteOrder, more bool, size uint32, err error) {
	hdr = hdr[:HeaderSize]
	if _, err = io.ReadFull(r, hdr); err != nil {
		return 0, 0, false, 0, err
	}
	if string(hdr[:4]) != Magic {
		return 0, 0, false, 0, fmt.Errorf("giop: bad magic %q", hdr[:4])
	}
	if hdr[4] != VersionMajor || hdr[5] != VersionMinor {
		return 0, 0, false, 0, fmt.Errorf("giop: unsupported version %d.%d", hdr[4], hdr[5])
	}
	order = cdr.ByteOrder(hdr[6] & 1)
	more = hdr[6]&flagMoreFragments != 0
	t = MsgType(hdr[7])
	if order == cdr.LittleEndian {
		size = uint32(hdr[8]) | uint32(hdr[9])<<8 | uint32(hdr[10])<<16 | uint32(hdr[11])<<24
	} else {
		size = uint32(hdr[8])<<24 | uint32(hdr[9])<<16 | uint32(hdr[10])<<8 | uint32(hdr[11])
	}
	if size > MaxMessageSize {
		return 0, 0, false, 0, fmt.Errorf("giop: message body %d exceeds limit", size)
	}
	return t, order, more, size, nil
}

// readFrameInto is readFrame with a caller-supplied header scratch buffer
// (len >= HeaderSize), so per-connection read loops avoid one allocation
// per frame.
func readFrameInto(r io.Reader, hdr []byte) (*Message, bool, error) {
	t, order, more, size, err := readHeaderInto(r, hdr)
	if err != nil {
		return nil, false, err
	}
	body := make([]byte, size)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, false, fmt.Errorf("giop: reading body: %w", err)
	}
	return &Message{Type: t, Order: order, Body: body}, more, nil
}

// readMessageReassembled reads one logical message, transparently
// reassembling fragmented frames. Non-fragmented streams behave exactly
// like ReadMessage.
func readMessageReassembled(r io.Reader) (*Message, error) {
	var hdr [HeaderSize]byte
	return readReassembled(r, hdr[:])
}

// readReassembled implements readMessageReassembled over a caller-supplied
// header scratch buffer.
func readReassembled(r io.Reader, hdr []byte) (*Message, error) {
	msg, more, err := readFrameInto(r, hdr)
	if err != nil {
		return nil, err
	}
	if !more {
		if msg.Type == MsgFragment {
			return nil, fmt.Errorf("giop: fragment without a preceding message")
		}
		return msg, nil
	}
	total := len(msg.Body)
	for more {
		frag, m, err := readFrameInto(r, hdr)
		if err != nil {
			return nil, fmt.Errorf("giop: reading continuation fragment: %w", err)
		}
		if frag.Type != MsgFragment {
			return nil, fmt.Errorf("giop: expected Fragment, found %v", frag.Type)
		}
		if frag.Order != msg.Order {
			return nil, fmt.Errorf("giop: fragment byte order changed mid-message")
		}
		total += len(frag.Body)
		if total > MaxMessageSize {
			return nil, fmt.Errorf("giop: reassembled message %d exceeds limit", total)
		}
		msg.Body = append(msg.Body, frag.Body...)
		more = m
	}
	return msg, nil
}
