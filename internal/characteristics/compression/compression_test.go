package compression

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"maqs/internal/cdr"
	"maqs/internal/ior"
	"maqs/internal/netsim"
	"maqs/internal/orb"
	"maqs/internal/qos"
	"maqs/internal/qos/transport"
)

func newModule(t *testing.T, config map[string]string) *Module {
	t.Helper()
	m, err := NewModule(nil, config)
	if err != nil {
		t.Fatal(err)
	}
	return m.(*Module)
}

func TestWrapUnwrapRoundTripProperty(t *testing.T) {
	m := newModule(t, map[string]string{"min_size": "0"})
	f := func(p []byte) bool {
		w, err := m.wrap(p)
		if err != nil {
			return false
		}
		u, err := m.unwrap(w)
		if err != nil {
			return false
		}
		return bytes.Equal(u, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCompressibleShrinks(t *testing.T) {
	m := newModule(t, nil)
	p := bytes.Repeat([]byte("the quick brown fox "), 200)
	w, err := m.wrap(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(w) >= len(p)/2 {
		t.Fatalf("compressible payload only reached %d/%d bytes", len(w), len(p))
	}
	if w[0] != frameDeflate {
		t.Fatalf("frame type = %d", w[0])
	}
}

func TestSmallPayloadStored(t *testing.T) {
	m := newModule(t, nil) // min_size 128
	p := []byte("tiny")
	w, err := m.wrap(p)
	if err != nil {
		t.Fatal(err)
	}
	if w[0] != frameStored {
		t.Fatalf("frame type = %d", w[0])
	}
	s := m.Stats()
	if s.Stored != 1 || s.Compressed != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestIncompressibleFallsBackToStored(t *testing.T) {
	m := newModule(t, map[string]string{"min_size": "0"})
	// Pseudo-random bytes do not deflate.
	p := make([]byte, 4096)
	seed := uint32(0x9E3779B9)
	for i := range p {
		seed = seed*1664525 + 1013904223
		p[i] = byte(seed >> 24)
	}
	w, err := m.wrap(p)
	if err != nil {
		t.Fatal(err)
	}
	if w[0] != frameStored {
		t.Fatalf("incompressible payload framed as %d, wire %d vs raw %d", w[0], len(w), len(p))
	}
	u, err := m.unwrap(w)
	if err != nil || !bytes.Equal(u, p) {
		t.Fatal("round trip broken")
	}
}

func TestUnwrapErrors(t *testing.T) {
	m := newModule(t, nil)
	cases := [][]byte{
		nil,
		{1, 2},
		{9, 0, 0, 0, 1, 0},                     // unknown frame type
		{frameStored, 0, 0, 0, 9, 1},           // length mismatch
		{frameDeflate, 0, 0, 0, 4, 0xFF, 0xFF}, // corrupt deflate
	}
	for i, c := range cases {
		if _, err := m.unwrap(c); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	for _, config := range []map[string]string{
		{"level": "0"},
		{"level": "10"},
		{"level": "x"},
		{"min_size": "-1"},
		{"min_size": "x"},
	} {
		if _, err := NewModule(nil, config); err == nil {
			t.Errorf("config %v accepted", config)
		}
	}
	m := newModule(t, map[string]string{"level": "9", "min_size": "10"})
	if m.level != 9 || m.minSize != 10 {
		t.Fatalf("config not applied: %+v", m)
	}
}

// blobServant serves compressible documents and accepts uploads.
type blobServant struct{ doc []byte }

func (s *blobServant) Invoke(req *orb.ServerRequest) error {
	switch req.Operation {
	case "fetch":
		req.Out.WriteOctets(s.doc)
		return nil
	case "store":
		b, err := req.In().ReadOctets()
		if err != nil {
			return err
		}
		s.doc = append([]byte(nil), b...)
		req.Out.WriteULong(uint32(len(b)))
		return nil
	case "echo":
		b, err := req.In().ReadOctets()
		if err != nil {
			return err
		}
		req.Out.WriteOctets(b)
		return nil
	default:
		return orb.NewSystemException(orb.ExcBadOperation, 1, "no op %q", req.Operation)
	}
}

type world struct {
	stub         *qos.Stub
	clientModule *Module
	serverModule *Module
	ref          *ior.IOR
	client       *orb.ORB
}

func newWorld(t *testing.T) *world {
	t.Helper()
	n := netsim.NewNetwork()
	server := orb.New(orb.Options{Transport: n.Host("server")})
	if err := server.Listen("server:6000"); err != nil {
		t.Fatal(err)
	}
	st := transport.Install(server)
	if err := Setup(st, nil); err != nil {
		t.Fatal(err)
	}
	doc := bytes.Repeat([]byte("lorem ipsum dolor sit amet "), 400)
	skel := qos.NewServerSkeleton(&blobServant{doc: doc})
	if err := skel.AddQoS(NewImpl(0)); err != nil {
		t.Fatal(err)
	}
	ref, err := server.Adapter().ActivateQoS("blob", "IDL:test/Blob:1.0", skel,
		ior.QoSInfo{Characteristics: []string{Name}, Modules: []string{ModuleName}})
	if err != nil {
		t.Fatal(err)
	}

	client := orb.New(orb.Options{Transport: n.Host("client")})
	ct := transport.Install(client)
	if err := Setup(ct, nil); err != nil {
		t.Fatal(err)
	}
	registry := qos.NewRegistry()
	if err := Register(registry); err != nil {
		t.Fatal(err)
	}
	stub := qos.NewStubWithRegistry(client, ref, registry)
	t.Cleanup(func() {
		client.Shutdown()
		server.Shutdown()
	})
	cm, _ := ct.Module(ModuleName)
	sm, _ := st.Module(ModuleName)
	return &world{stub: stub, clientModule: cm.(*Module), serverModule: sm.(*Module), ref: ref, client: client}
}

func TestEndToEndCompressedBinding(t *testing.T) {
	w := newWorld(t)
	b, err := w.stub.Negotiate(context.Background(), &qos.Proposal{
		Characteristic: Name,
		Params:         []qos.ParamProposal{{Name: ParamLevel, Desired: qos.Number(9)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if b.Module != ModuleName {
		t.Fatalf("binding module = %q", b.Module)
	}

	d, err := w.stub.Call(context.Background(), "fetch", nil)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := d.ReadOctets()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(doc, []byte("lorem ipsum")) {
		t.Fatal("document corrupted")
	}

	// The server-side module must have compressed the reply.
	s := w.serverModule.Stats()
	if s.Compressed == 0 {
		t.Fatalf("server stats = %+v", s)
	}
	if s.WireBytes >= s.RawBytes {
		t.Fatalf("no size win: wire %d raw %d", s.WireBytes, s.RawBytes)
	}

	// Upload path (request body compressed client-side).
	e := cdr.NewEncoder(w.client.Order())
	e.WriteOctets(bytes.Repeat([]byte("upload payload "), 300))
	d, err = w.stub.Call(context.Background(), "store", e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := d.ReadULong(); n != 15*300 {
		t.Fatalf("stored %d bytes", n)
	}
	cs := w.clientModule.Stats()
	if cs.Compressed == 0 || cs.WireBytes >= cs.RawBytes {
		t.Fatalf("client stats = %+v", cs)
	}
}

func TestUnboundTrafficStaysUncompressed(t *testing.T) {
	w := newWorld(t)
	// No negotiation: plain path, module untouched.
	d, err := w.stub.Call(context.Background(), "fetch", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadOctets(); err != nil {
		t.Fatal(err)
	}
	if s := w.serverModule.Stats(); s.Compressed+s.Stored != 0 {
		t.Fatalf("module touched plain traffic: %+v", s)
	}
}

func TestStatsViaDynamicInterface(t *testing.T) {
	w := newWorld(t)
	if _, err := w.stub.Negotiate(context.Background(), &qos.Proposal{Characteristic: Name}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.stub.Call(context.Background(), "fetch", nil); err != nil {
		t.Fatal(err)
	}
	ctl := transport.NewController(w.client, w.ref)
	d, err := ctl.ModuleCommand(context.Background(), ModuleName, "stats", nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := d.ReadULongLong()
	if err != nil {
		t.Fatal(err)
	}
	wire, err := d.ReadULongLong()
	if err != nil {
		t.Fatal(err)
	}
	if raw == 0 || wire == 0 || wire >= raw {
		t.Fatalf("remote stats raw=%d wire=%d", raw, wire)
	}
}

func TestDescribeAndRegister(t *testing.T) {
	desc := Describe()
	if desc.Name != Name || desc.Category != qos.CategoryBandwidth {
		t.Fatalf("descriptor = %+v", desc)
	}
	if !slices.ContainsFunc(desc.Params, func(p qos.ParameterDecl) bool { return p.Name == ParamLevel }) {
		t.Fatal("level param missing")
	}
	r := qos.NewRegistry()
	if err := Register(r); err != nil {
		t.Fatal(err)
	}
	if err := Register(r); err == nil || !strings.Contains(err.Error(), "already") {
		t.Fatalf("duplicate register err = %v", err)
	}
}
