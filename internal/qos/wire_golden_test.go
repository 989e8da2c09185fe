package qos

import (
	"bufio"
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"maqs/internal/cdr"
	"maqs/internal/giop"
	"maqs/internal/netsim"
	"maqs/internal/orb"
)

// TestNegotiationWireGolden pins the negotiation protocol's wire images
// byte for byte, in both byte orders, against testdata/wire.golden: a
// Proposal and a Contract as Marshal writes them, and what a client and a
// skeleton actually exchange over an ORB — the _qos_negotiate arguments
// and reply body, the _qos_renegotiate arguments and reply body, the
// _qos_release arguments and the SCQoS tag payload of the first bound
// request. A peer built from an older tree decodes exactly these bytes,
// so any change to them is a protocol change, not a refactoring.
//
// Binding IDs are random; every occurrence of the minted ID is replaced
// by goldenBindingID (same length) before comparing.
func TestNegotiationWireGolden(t *testing.T) {
	want := readWireGolden(t)
	got := map[string][]byte{}
	for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
		suffix := "/be"
		if order == cdr.LittleEndian {
			suffix = "/le"
		}
		p, o := goldenProposal(), goldenOffer()
		e := cdr.NewEncoder(order)
		p.Marshal(e)
		got["proposal"+suffix] = e.Bytes()

		c, err := resolve(p, o)
		if err != nil {
			t.Fatal(err)
		}
		c.Epoch = 7
		e = cdr.NewEncoder(order)
		c.Marshal(e)
		got["contract"+suffix] = e.Bytes()

		for name, b := range exchangeGolden(t, order) {
			got[name+suffix] = b
		}
	}
	var mismatch []string
	for name, b := range got {
		w, ok := want[name]
		if !ok || !bytes.Equal(w, b) {
			mismatch = append(mismatch, fmt.Sprintf("%s %x", name, b))
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("golden image %s was not produced", name)
		}
	}
	if len(mismatch) > 0 {
		t.Fatalf("wire images differ from testdata/wire.golden; got:\n%s", strings.Join(mismatch, "\n"))
	}
}

// goldenBindingID stands in for the skeleton's random binding ID.
const goldenBindingID = "0123456789abcdef01234567"

// goldenOffer offers its parameters out of name order, so the contract's
// name order is the encoder's doing.
func goldenOffer() *Offer {
	return &Offer{Characteristic: "Golden", Params: []ParamOffer{
		{Name: "verbose", Kind: KindBool, Default: Flag(false)},
		{Name: "level", Kind: KindNumber, Min: 0, Max: 9, Default: Number(1)},
		{Name: "mode", Kind: KindString, Choices: []string{"fast", "safe"}, Default: Text("safe")},
		{Name: "depth", Kind: KindNumber, Min: 1, Max: 4, Default: Number(2)},
	}}
}

// goldenProposal names three of the offer's four parameters, one of each
// kind; depth takes its default.
func goldenProposal() *Proposal {
	return &Proposal{Characteristic: "Golden", Params: []ParamProposal{
		{Name: "mode", Desired: Text("fast")},
		{Name: "level", Desired: Number(3), Min: 1, Max: 8, Weight: 0.5},
		{Name: "verbose", Desired: Flag(true)},
	}}
}

// wireRecorder wraps the skeleton and keeps a copy of each request's
// arguments, reply body and SCQoS payload, by operation.
type wireRecorder struct {
	inner orb.Servant
	mu    sync.Mutex
	seen  map[string][]byte
}

func (r *wireRecorder) Invoke(req *orb.ServerRequest) error {
	err := r.inner.Invoke(req)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seen[req.Operation+".args"] = bytes.Clone(req.Args)
	r.seen[req.Operation+".reply"] = bytes.Clone(req.Out.Bytes())
	if tag, ok := req.Contexts.Get(giop.SCQoS); ok {
		r.seen[req.Operation+".tag"] = bytes.Clone(tag)
	}
	return err
}

// exchangeGolden negotiates, renegotiates, calls once bound and releases
// through a client ORB of the given byte order, and returns what the
// server saw, binding ID replaced.
func exchangeGolden(t *testing.T, order cdr.ByteOrder) map[string][]byte {
	t.Helper()
	n := netsim.NewNetwork()
	server := orb.New(orb.Options{Transport: n.Host("server")})
	if err := server.Listen("server:7000"); err != nil {
		t.Fatal(err)
	}
	skel := NewServerSkeleton(&counterServant{})
	if err := skel.AddQoS(&BaseImpl{Desc: &Characteristic{Name: "Golden"}, Capability: goldenOffer()}); err != nil {
		t.Fatal(err)
	}
	rec := &wireRecorder{inner: skel, seen: map[string][]byte{}}
	ref, err := server.Adapter().Activate("golden", "IDL:test/Counter:1.0", rec)
	if err != nil {
		t.Fatal(err)
	}
	client := orb.New(orb.Options{Transport: n.Host("client"), Order: order})
	t.Cleanup(func() {
		client.Shutdown()
		server.Shutdown()
	})
	registry := NewRegistry()
	if err := registry.Register(&Characteristic{Name: "Golden"}, nil); err != nil {
		t.Fatal(err)
	}
	stub := NewStubWithRegistry(client, ref, registry)
	ctx := context.Background()
	b, err := stub.Negotiate(ctx, goldenProposal())
	if err != nil {
		t.Fatal(err)
	}
	p := goldenProposal()
	p.Params[1].Desired = Number(5)
	if _, err := stub.Renegotiate(ctx, p); err != nil {
		t.Fatal(err)
	}
	if _, err := stub.Call(ctx, "inc", nil); err != nil {
		t.Fatal(err)
	}
	if err := stub.Release(ctx); err != nil {
		t.Fatal(err)
	}
	if len(b.ID) != len(goldenBindingID) {
		t.Fatalf("binding ID %q is not %d characters", b.ID, len(goldenBindingID))
	}
	out := map[string][]byte{}
	for _, name := range []string{
		opNegotiate + ".args", opNegotiate + ".reply",
		opRenegotiate + ".args", opRenegotiate + ".reply",
		OpRelease + ".args", "inc.tag",
	} {
		img, ok := rec.seen[name]
		if !ok {
			t.Fatalf("the server saw no %s", name)
		}
		out[name] = bytes.ReplaceAll(img, []byte(b.ID), []byte(goldenBindingID))
	}
	return out
}

// readWireGolden parses testdata/wire.golden: "name hex" per line, #
// comments and blank lines ignored.
func readWireGolden(t *testing.T) map[string][]byte {
	t.Helper()
	f, err := os.Open("testdata/wire.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	images := map[string][]byte{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, h, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("golden line %q has no image", line)
		}
		b, err := hex.DecodeString(h)
		if err != nil {
			t.Fatalf("golden image %s: %v", name, err)
		}
		images[name] = b
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return images
}
