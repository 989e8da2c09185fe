package orb

import (
	"testing"

	"maqs/internal/giop"
)

func TestQoSTagRoundTrip(t *testing.T) {
	tag := QoSTag{Characteristic: "Availability", BindingID: "abc123", Module: "group"}
	got, err := DecodeQoSTag(tag.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != tag {
		t.Fatalf("tag = %+v", got)
	}
	if _, err := DecodeQoSTag([]byte{1, 2}); err == nil {
		t.Fatal("garbage tag accepted")
	}
}

// scribble overwrites a payload in place: a later QoSTag call that still
// answers with the original tag cannot have decoded the bytes again.
func scribble(p []byte) {
	for i := range p {
		p[i] = 0xFF
	}
}

func TestServerRequestTagDecodedOnce(t *testing.T) {
	tag := QoSTag{Characteristic: "Compression", BindingID: "b1", Module: "flate"}
	payload := tag.Encode()
	req := &ServerRequest{Contexts: giop.ServiceContextList{}.With(giop.SCQoS, payload)}
	got, tagged, err := req.QoSTag()
	if err != nil || !tagged || got != tag {
		t.Fatalf("first read = %+v, %v, %v", got, tagged, err)
	}
	scribble(payload)
	for i := 0; i < 5; i++ { // router, filters in+out, skeleton, module
		got, tagged, err = req.QoSTag()
		if err != nil || !tagged || got != tag {
			t.Fatalf("read %d re-decoded: %+v, %v, %v", i+2, got, tagged, err)
		}
	}
}

// A pooled ServerRequest that served a tagged request must report the next,
// untagged one as untagged — both through release (the struct is cleared)
// and, were a field ever to survive, through the payload-identity key.
func TestPooledServerRequestForgetsTag(t *testing.T) {
	tag := QoSTag{Characteristic: "Encryption", BindingID: "b2", Module: "secure"}
	req := serverReqPool.Get().(*ServerRequest)
	*req = ServerRequest{Contexts: giop.ServiceContextList{}.With(giop.SCQoS, tag.Encode())}
	if _, tagged, err := req.QoSTag(); err != nil || !tagged {
		t.Fatalf("tagged request: %v, %v", tagged, err)
	}
	releaseServerRequest(req)
	if req.tag.data != nil || req.tag.tag != (QoSTag{}) {
		t.Fatalf("release left the memo behind: %+v", req.tag)
	}

	// Worst case: the same struct, memo deliberately left in place.
	req.tag = EncodedQoSTag{data: tag.Encode(), tag: tag}
	req.Contexts = giop.ServiceContextList{}.With(giop.SCTrace, []byte("00-aa-bb-01"))
	if got, tagged, err := req.QoSTag(); err != nil || tagged {
		t.Fatalf("untagged request reported %+v, %v, %v", got, tagged, err)
	}
	// And a different binding's payload is decoded afresh, not answered
	// from the stale memo.
	other := QoSTag{Characteristic: "Compression", BindingID: "b3", Module: "flate"}
	req.Contexts = giop.ServiceContextList{}.With(giop.SCQoS, other.Encode())
	if got, tagged, err := req.QoSTag(); err != nil || !tagged || got != other {
		t.Fatalf("next tagged request reported %+v, %v, %v", got, tagged, err)
	}
}

func TestInvocationTagSeededAndReplaced(t *testing.T) {
	tag := QoSTag{Characteristic: "LoadBalancing", BindingID: "front", Module: ""}
	enc := tag.Encoded()
	inv := &Invocation{Operation: "op"}
	if _, tagged, err := inv.QoSTag(); err != nil || tagged {
		t.Fatalf("plain invocation: %v, %v", tagged, err)
	}
	inv.SetQoSTag(enc)
	if data, _ := inv.Contexts.Get(giop.SCQoS); string(data) != string(tag.Encode()) {
		t.Fatalf("wire payload = %x", data)
	}
	// Seeded: the stub's tag is answered without ever decoding.
	allocs := testing.AllocsPerRun(100, func() {
		if got, tagged, err := inv.QoSTag(); err != nil || !tagged || got != tag {
			t.Fatalf("seeded read = %+v, %v, %v", got, tagged, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("seeded QoSTag allocates %.0f objects", allocs)
	}

	// A mediator that re-tags a clone for one replica gets its own tag;
	// the original and the shared per-binding memo stay as they were.
	replica := QoSTag{Characteristic: "LoadBalancing", BindingID: "replica-7", Module: ""}
	routed := inv.Clone()
	routed.Contexts = routed.Contexts.With(giop.SCQoS, replica.Encode())
	if got, _, err := routed.QoSTag(); err != nil || got != replica {
		t.Fatalf("re-tagged clone = %+v, %v", got, err)
	}
	if got, _, _ := inv.QoSTag(); got != tag {
		t.Fatalf("original = %+v", got)
	}
	if enc.tag != tag {
		t.Fatalf("shared memo overwritten: %+v", enc.tag)
	}

	// A module's shallow copy shares list and memo.
	wrapped := *inv
	wrapped.Args = []byte("sealed")
	if got, _, _ := wrapped.QoSTag(); got != tag || wrapped.tag != enc {
		t.Fatalf("shallow copy = %+v (memo shared: %v)", got, wrapped.tag == enc)
	}
}

func TestMalformedTag(t *testing.T) {
	req := &ServerRequest{Contexts: giop.ServiceContextList{}.With(giop.SCQoS, []byte{1, 2})}
	for i := 0; i < 2; i++ {
		if _, tagged, err := req.QoSTag(); err == nil || tagged {
			t.Fatalf("malformed tag: %v, %v", tagged, err)
		}
	}
	if got := req.tag.class(req.Contexts); got != "invalid" {
		t.Fatalf("class = %q", got)
	}
	empty := &ServerRequest{Contexts: giop.ServiceContextList{}.With(giop.SCQoS, nil)}
	if _, tagged, err := empty.QoSTag(); err == nil || tagged {
		t.Fatalf("empty tag: %v, %v", tagged, err)
	}
	var plain EncodedQoSTag
	if got := plain.class(nil); got != "none" {
		t.Fatalf("class = %q", got)
	}
}
