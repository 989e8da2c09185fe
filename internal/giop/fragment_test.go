package giop

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"maqs/internal/cdr"
)

func TestFragmentedRoundTrip(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789"), 1000) // 10 000 octets
	for _, maxFrag := range []int{1, 7, 100, 4096, 9999, 10000, 20000} {
		var buf bytes.Buffer
		if err := writeMessageFragmented(&buf, MsgRequest, cdr.BigEndian, body, maxFrag); err != nil {
			t.Fatalf("maxFrag %d: %v", maxFrag, err)
		}
		msg, err := readMessageReassembled(&buf)
		if err != nil {
			t.Fatalf("maxFrag %d: %v", maxFrag, err)
		}
		if msg.Type != MsgRequest || !bytes.Equal(msg.Body, body) {
			t.Fatalf("maxFrag %d: reassembly mismatch (%d bytes)", maxFrag, len(msg.Body))
		}
		if buf.Len() != 0 {
			t.Fatalf("maxFrag %d: %d bytes left in stream", maxFrag, buf.Len())
		}
	}
}

func TestFragmentedEquivalentToPlainWhenSmall(t *testing.T) {
	var plain, fragged bytes.Buffer
	body := []byte("tiny")
	if err := WriteMessage(&plain, MsgReply, cdr.LittleEndian, body); err != nil {
		t.Fatal(err)
	}
	if err := writeMessageFragmented(&fragged, MsgReply, cdr.LittleEndian, body, 4096); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), fragged.Bytes()) {
		t.Fatal("small message fragmented needlessly")
	}
	// And the reassembling reader handles plain streams.
	msg, err := readMessageReassembled(&plain)
	if err != nil || msg.Type != MsgReply {
		t.Fatalf("plain stream via reassembler: %v", err)
	}
}

func TestFragmentWithoutStartRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, MsgFragment, cdr.BigEndian, []byte("x"), false); err != nil {
		t.Fatal(err)
	}
	if _, err := readMessageReassembled(&buf); err == nil || !strings.Contains(err.Error(), "without a preceding") {
		t.Fatalf("err = %v", err)
	}
}

func TestFragmentStreamErrors(t *testing.T) {
	// More-fragments set but stream ends.
	var buf bytes.Buffer
	if err := writeFrame(&buf, MsgRequest, cdr.BigEndian, []byte("part"), true); err != nil {
		t.Fatal(err)
	}
	if _, err := readMessageReassembled(&buf); err == nil {
		t.Fatal("dangling fragmented message accepted")
	}

	// Continuation is not a Fragment.
	buf.Reset()
	if err := writeFrame(&buf, MsgRequest, cdr.BigEndian, []byte("part"), true); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(&buf, MsgReply, cdr.BigEndian, []byte("rest"), false); err != nil {
		t.Fatal(err)
	}
	if _, err := readMessageReassembled(&buf); err == nil || !strings.Contains(err.Error(), "expected Fragment") {
		t.Fatalf("err = %v", err)
	}

	// Byte order flip mid-message.
	buf.Reset()
	if err := writeFrame(&buf, MsgRequest, cdr.BigEndian, []byte("part"), true); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(&buf, MsgFragment, cdr.LittleEndian, []byte("rest"), false); err != nil {
		t.Fatal(err)
	}
	if _, err := readMessageReassembled(&buf); err == nil || !strings.Contains(err.Error(), "byte order") {
		t.Fatalf("err = %v", err)
	}
}

func TestFragmentRoundTripProperty(t *testing.T) {
	f := func(body []byte, maxFrag uint16, little bool) bool {
		order := cdr.BigEndian
		if little {
			order = cdr.LittleEndian
		}
		frag := int(maxFrag%512) + 1
		var buf bytes.Buffer
		if err := writeMessageFragmented(&buf, MsgRequest, order, body, frag); err != nil {
			return false
		}
		msg, err := readMessageReassembled(&buf)
		if err != nil {
			return false
		}
		return msg.Type == MsgRequest && bytes.Equal(msg.Body, body) && msg.Order == order
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
