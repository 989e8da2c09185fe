package orb

import (
	"bytes"
	"testing"

	"maqs/internal/giop"
)

func TestQoSTagRoundTrip(t *testing.T) {
	tag := QoSTag{Characteristic: "Availability", BindingID: "abc123", Module: "group"}
	got, err := decodeQoSTag(tag.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != tag {
		t.Fatalf("tag = %+v", got)
	}
	if _, err := decodeQoSTag([]byte{1, 2}); err == nil {
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
// untagged one as untagged — both through release (the dispatch job that
// holds it is cleared) and, were a field ever to survive, through the
// payload-identity key.
func TestPooledServerRequestForgetsTag(t *testing.T) {
	tag := QoSTag{Characteristic: "Encryption", BindingID: "b2", Module: "secure"}
	job := acquireJob()
	req := &job.req
	*req = ServerRequest{Contexts: giop.ServiceContextList{}.With(giop.SCQoS, tag.Encode())}
	if _, tagged, err := req.QoSTag(); err != nil || !tagged {
		t.Fatalf("tagged request: %v, %v", tagged, err)
	}
	job.release()
	if req.tag.data != nil || req.tag.tag != (QoSTag{}) {
		t.Fatalf("release left the memo behind: %+v", req.tag)
	}

	// Worst case: a request whose memo was deliberately left in place.
	req = &ServerRequest{}
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

// fill resolves ctxs through c into a fresh memo, as the read loop does for
// a request. hit reports that c held the payload beforehand; a hit must not
// allocate (a miss pays for a decoder and the tag's strings).
func fill(t *testing.T, c *tagCache, ctxs giop.ServiceContextList) (m EncodedQoSTag, hit bool) {
	t.Helper()
	data, _ := ctxs.Get(giop.SCQoS)
	for i := range c.entries {
		hit = hit || bytes.Equal(c.entries[i].data, data) && len(data) > 0
	}
	allocs := testing.AllocsPerRun(1, func() {
		m = EncodedQoSTag{}
		c.fill(&m, ctxs)
	})
	if hit && allocs != 0 {
		t.Fatalf("a cached tag cost %.0f allocations", allocs)
	}
	return m, hit
}

func cachedTags(c *tagCache) (n int) {
	for i := range c.entries {
		if len(c.entries[i].data) > 0 {
			n++
		}
	}
	return n
}

// TestConnectionTagCache walks the cache a server connection resolves SCQoS
// payloads through: content-keyed, fixed in size, and a memory of decodes
// only.
func TestConnectionTagCache(t *testing.T) {
	tagged := func(tag QoSTag) giop.ServiceContextList {
		return giop.ServiceContextList{}.With(giop.SCQoS, tag.Encode())
	}
	a := QoSTag{Characteristic: "Compression", BindingID: "binding-a", Module: "flate"}
	b := QoSTag{Characteristic: "Encryption", BindingID: "binding-b", Module: "secure"}

	t.Run("two bindings alternating both hit", func(t *testing.T) {
		var c tagCache
		fill(t, &c, tagged(a))
		fill(t, &c, tagged(b))
		for i := 0; i < 6; i++ {
			want := []QoSTag{a, b}[i%2]
			ctxs := tagged(want) // a fresh payload, as every request's is
			m, hit := fill(t, &c, ctxs)
			if !hit {
				t.Fatalf("request %d of %s decoded again", i, want.BindingID)
			}
			if got, ok, err := m.lookup(ctxs); err != nil || !ok || got != want {
				t.Fatalf("request %d = %+v, %v, %v", i, got, ok, err)
			}
		}
		if n := cachedTags(&c); n != 2 {
			t.Fatalf("%d entries for two bindings", n)
		}
	})

	t.Run("a swapped context misses and decodes the new payload", func(t *testing.T) {
		var c tagCache
		req := &ServerRequest{Contexts: tagged(a)}
		c.fill(&req.tag, req.Contexts)
		if got, _, _ := req.QoSTag(); got != a {
			t.Fatalf("filled request = %+v", got)
		}
		// A filter re-tags the request: the per-request memo is keyed by
		// payload identity, so nobody has to tell it.
		req.Contexts = req.Contexts.With(giop.SCQoS, b.Encode())
		if got, ok, err := req.QoSTag(); err != nil || !ok || got != b {
			t.Fatalf("re-tagged request = %+v, %v, %v", got, ok, err)
		}
	})

	t.Run("more tags than entries evict without growth", func(t *testing.T) {
		var c tagCache
		tags := make([]QoSTag, 3*tagCacheEntries)
		for i := range tags {
			tags[i] = QoSTag{Characteristic: "Null", BindingID: string(rune('A'+i)) + "-binding"}
			if m, hit := fill(t, &c, tagged(tags[i])); hit || m.tag != tags[i] {
				t.Fatalf("tag %d = %+v (hit: %v)", i, m.tag, hit)
			}
		}
		if n := cachedTags(&c); n != tagCacheEntries {
			t.Fatalf("%d entries, the cache holds %d", n, tagCacheEntries)
		}
		if _, hit := fill(t, &c, tagged(tags[len(tags)-1])); !hit {
			t.Fatal("the newest tag was evicted")
		}
		if m, hit := fill(t, &c, tagged(tags[0])); hit || m.tag != tags[0] {
			t.Fatalf("the oldest tag: hit %v, %+v", hit, m.tag)
		}
		for i := range c.entries {
			if cap(c.entries[i].data) > maxCachedTag {
				t.Fatalf("entry %d retains %d bytes", i, cap(c.entries[i].data))
			}
		}
	})

	t.Run("an oversized payload is not cached", func(t *testing.T) {
		var c tagCache
		big := QoSTag{Characteristic: "Null", BindingID: "b", Module: string(make([]byte, maxCachedTag))}
		for i := 0; i < 2; i++ {
			if m, hit := fill(t, &c, tagged(big)); hit || m.tag != big {
				t.Fatalf("fill %d: hit %v, decoded %v", i, hit, m.tag == big)
			}
		}
		if n := cachedTags(&c); n != 0 {
			t.Fatalf("%d entries", n)
		}
	})

	t.Run("an undecodable tag classes as invalid", func(t *testing.T) {
		var c tagCache
		for _, payload := range [][]byte{{1, 2}, nil} {
			ctxs := giop.ServiceContextList{}.With(giop.SCQoS, payload)
			var m EncodedQoSTag
			c.fill(&m, ctxs)
			if got := m.class(ctxs); got != "invalid" {
				t.Fatalf("class of %x = %q", payload, got)
			}
		}
		if n := cachedTags(&c); n != 0 {
			t.Fatalf("%d entries", n)
		}
		var m EncodedQoSTag
		c.fill(&m, nil)
		if got := m.class(nil); got != "none" {
			t.Fatalf("plain traffic classes as %q", got)
		}
	})

	t.Run("the cache owns its bytes", func(t *testing.T) {
		var c tagCache
		ctxs := tagged(a)
		c.fill(new(EncodedQoSTag), ctxs)
		scribble(ctxs[0].Data) // the job's scratch, reused by the next request
		if m, hit := fill(t, &c, tagged(a)); !hit || m.tag != a {
			t.Fatalf("after the first request's bytes were reused: hit %v, %+v", hit, m.tag)
		}
	})
}

// FuzzDecodeQoSTag: whatever a peer puts in an SCQoS context either fails
// to decode or decodes to a tag that encodes and decodes to itself, and a
// connection's cache answers it exactly as a fresh decode does.
func FuzzDecodeQoSTag(f *testing.F) {
	f.Add(QoSTag{Characteristic: "Availability", BindingID: "abc123", Module: "group"}.Encode())
	f.Add(QoSTag{}.Encode())
	f.Add([]byte{1, 2})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tag, err := decodeQoSTag(data)
		if err == nil {
			if again, err := decodeQoSTag(tag.Encode()); err != nil || again != tag {
				t.Fatalf("%+v re-encodes to %+v, %v", tag, again, err)
			}
		}
		var c tagCache
		ctxs := giop.ServiceContextList{{ID: giop.SCQoS, Data: data}}
		for i := 0; i < 2; i++ { // a miss, then (for a cacheable tag) a hit
			var m EncodedQoSTag
			c.fill(&m, ctxs)
			got, tagged, gotErr := m.lookup(ctxs)
			if (gotErr == nil) != (err == nil) || tagged != (err == nil) || got != tag {
				t.Fatalf("fill %d = %+v, %v, %v; decode = %+v, %v", i, got, tagged, gotErr, tag, err)
			}
		}
	})
}
