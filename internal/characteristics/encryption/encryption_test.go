package encryption

import (
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"testing/quick"

	"maqs/internal/cdr"
	"maqs/internal/giop"
	"maqs/internal/ior"
	"maqs/internal/netsim"
	"maqs/internal/orb"
	"maqs/internal/qos"
	"maqs/internal/qos/transport"
)

func testKeys() *sessionKeys {
	return deriveKeys([]byte("shared secret bytes"), "binding-1")
}

func testModule() *Module {
	return &Module{keys: make(map[string]*sessionKeys)}
}

func TestSealOpenRoundTripProperty(t *testing.T) {
	m := testModule()
	k := testKeys()
	f := func(p []byte, reply bool) bool {
		dir := toServer
		if reply {
			dir = toClient
		}
		sealed := m.seal(k, dir, p)
		if len(sealed) != len(p)+overhead {
			return false
		}
		opened, err := m.open(k, dir, sealed)
		return err == nil && bytes.Equal(opened, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCiphertextDiffersFromPlaintext(t *testing.T) {
	m := testModule()
	k := testKeys()
	p := []byte("the secret plan of attack, repeated: the secret plan of attack")
	sealed := m.seal(k, toServer, p)
	if bytes.Contains(sealed, p[:16]) {
		t.Fatal("plaintext visible in sealed frame")
	}
	// Two seals of the same plaintext differ: the counter in the nonce
	// moved on.
	if bytes.Equal(sealed, m.seal(k, toServer, p)) {
		t.Fatal("deterministic encryption")
	}
}

// TestTamperingDetected flips one bit in each part of a frame: the
// direction octet, the sequence, the ciphertext and the tag.
func TestTamperingDetected(t *testing.T) {
	m := testModule()
	k := testKeys()
	sealed := m.seal(k, toServer, []byte("payload"))
	positions := []int{0, nonceSize - 1, nonceSize, len(sealed) - 1}
	for _, idx := range positions {
		tampered := append([]byte(nil), sealed...)
		tampered[idx] ^= 0x01
		if _, err := m.open(k, toServer, tampered); !errors.Is(err, errIntegrity) {
			t.Errorf("tampering at %d: err = %v, want an integrity failure", idx, err)
		}
	}
	if got := m.Stats().AuthFailures; got != uint64(len(positions)) {
		t.Fatalf("auth failures = %d, want %d", got, len(positions))
	}
	// Binding mismatch is also an integrity failure: the binding ID is
	// authenticated into the frame, whatever the keys.
	other := testKeys()
	other.id = []byte("other-binding")
	if _, err := m.open(other, toServer, sealed); err == nil {
		t.Fatal("binding mix-up not detected")
	}
	// A frame too short to hold a nonce and a tag is refused unread.
	if _, err := m.open(k, toServer, sealed[:overhead-1]); err == nil || errors.Is(err, errIntegrity) {
		t.Fatalf("%d-byte frame: err = %v, want a length error", overhead-1, err)
	}
	if _, err := m.open(k, toServer, sealed); err != nil {
		t.Fatalf("untouched frame refused: %v", err)
	}
}

func TestWrongKeyFails(t *testing.T) {
	m := testModule()
	k1 := deriveKeys([]byte("secret one"), "b")
	k2 := deriveKeys([]byte("secret two"), "b")
	if _, err := m.open(k2, toServer, m.seal(k1, toServer, []byte("data"))); err == nil {
		t.Fatal("wrong key accepted")
	}
}

func TestKeyDerivationDomainSeparation(t *testing.T) {
	k := deriveKeys([]byte("s"), "b")
	k2 := deriveKeys([]byte("s"), "b2")
	if k.key == k2.key {
		t.Fatal("keys not bound to binding id")
	}
}

// secretServant returns a canned secret.
type secretServant struct{}

func (secretServant) Invoke(req *orb.ServerRequest) error {
	switch req.Operation {
	case "reveal":
		req.Out.WriteString("ATTACK AT DAWN")
		return nil
	case "echo":
		s, err := req.In().ReadString()
		if err != nil {
			return err
		}
		req.Out.WriteString(s)
		return nil
	default:
		return orb.NewSystemException(orb.ExcBadOperation, 1, "no op %q", req.Operation)
	}
}

type bytesRecorder struct {
	mu  chan struct{}
	buf []byte
}

func (r *bytesRecorder) record(p []byte) {
	<-r.mu
	r.buf = append(r.buf, p...)
	r.mu <- struct{}{}
}

func (r *bytesRecorder) bytes() []byte {
	<-r.mu
	defer func() { r.mu <- struct{}{} }()
	return append([]byte(nil), r.buf...)
}

func newRecorder() *bytesRecorder {
	r := &bytesRecorder{mu: make(chan struct{}, 1)}
	r.mu <- struct{}{}
	return r
}

type world struct {
	stub     *qos.Stub
	client   *orb.ORB
	ref      *ior.IOR
	recorder *bytesRecorder
	serverT  *transport.Transport
	clientT  *transport.Transport
}

func newWorld(t *testing.T) *world { return newWrappedWorld(t, nil) }

// newWrappedWorld builds the world with both sides' secure module passed
// through wrap; nil loads the module as Setup does.
func newWrappedWorld(t *testing.T, wrap func(*Module) transport.Module) *world {
	t.Helper()
	setup := func(tr *transport.Transport) error { return Setup(tr, nil) }
	if wrap != nil {
		setup = func(tr *transport.Transport) error {
			err := tr.RegisterFactory(ModuleName, func(tr *transport.Transport, config map[string]string) (transport.Module, error) {
				m, err := NewModule(tr, config)
				if err != nil {
					return nil, err
				}
				return wrap(m.(*Module)), nil
			})
			if err != nil {
				return err
			}
			return tr.Load(ModuleName, nil)
		}
	}
	n := netsim.NewNetwork()
	server := orb.New(orb.Options{Transport: n.Host("server")})
	if err := server.Listen("server:6100"); err != nil {
		t.Fatal(err)
	}
	st := transport.Install(server)
	if err := setup(st); err != nil {
		t.Fatal(err)
	}
	skel := qos.NewServerSkeleton(secretServant{})
	impl := NewImpl(0)
	impl.Transport = st
	if err := skel.AddQoS(impl); err != nil {
		t.Fatal(err)
	}
	ref, err := server.Adapter().ActivateQoS("secret", "IDL:test/Secret:1.0", skel,
		ior.QoSInfo{Characteristics: []string{Name}, Modules: []string{ModuleName}})
	if err != nil {
		t.Fatal(err)
	}

	recorder := newRecorder()
	client := orb.New(orb.Options{Transport: &tapTransport{inner: n.Host("client"), rec: recorder}})
	ct := transport.Install(client)
	if err := setup(ct); err != nil {
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
	return &world{stub: stub, client: client, ref: ref, recorder: recorder, serverT: st, clientT: ct}
}

// tapTransport wraps dials so every written/read byte is recorded.
type tapTransport struct {
	inner netsim.Transport
	rec   *bytesRecorder
}

func (t *tapTransport) Dial(addr string) (conn net.Conn, err error) {
	c, err := t.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: c, rec: t.rec}, nil
}

func (t *tapTransport) Listen(addr string) (net.Listener, error) { return t.inner.Listen(addr) }

type tapConn struct {
	net.Conn
	rec *bytesRecorder
}

func (c *tapConn) Write(p []byte) (int, error) {
	c.rec.record(p)
	return c.Conn.Write(p)
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.rec.record(p[:n])
	}
	return n, err
}

func TestEndToEndPrivacy(t *testing.T) {
	w := newWorld(t)
	b, err := w.stub.Negotiate(context.Background(), &qos.Proposal{Characteristic: Name})
	if err != nil {
		t.Fatal(err)
	}
	if b.Module != ModuleName {
		t.Fatalf("module = %q", b.Module)
	}
	if got := b.Contract.Text(ParamCipher, ""); got != CipherAES256GCM {
		t.Fatalf("cipher = %q", got)
	}

	d, err := w.stub.Call(context.Background(), "reveal", nil)
	if err != nil {
		t.Fatal(err)
	}
	secret, err := d.ReadString()
	if err != nil || secret != "ATTACK AT DAWN" {
		t.Fatalf("secret = %q, %v", secret, err)
	}

	// The eavesdropper never saw the plaintext.
	if bytes.Contains(w.recorder.bytes(), []byte("ATTACK AT DAWN")) {
		t.Fatal("plaintext crossed the wire")
	}

	// Request payloads are protected too.
	e := cdr.NewEncoder(w.client.Order())
	e.WriteString("CLIENT SECRET PHRASE")
	if _, err := w.stub.Call(context.Background(), "echo", e.Bytes()); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(w.recorder.bytes(), []byte("CLIENT SECRET PHRASE")) {
		t.Fatal("request plaintext crossed the wire")
	}

	// Exactly one handshake served both directions and both calls.
	sm, _ := w.serverT.Module(ModuleName)
	if s := sm.(*Module).Stats(); s.Handshakes != 1 || s.Opened != 2 || s.Sealed != 2 {
		t.Fatalf("server stats = %+v", s)
	}
}

func TestRekeyViaDropSession(t *testing.T) {
	w := newWorld(t)
	if _, err := w.stub.Negotiate(context.Background(), &qos.Proposal{Characteristic: Name}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.stub.Call(context.Background(), "reveal", nil); err != nil {
		t.Fatal(err)
	}
	// Drop the session on both sides; the next call re-handshakes.
	binding := w.stub.Binding()
	ctl := transport.NewController(w.client, w.ref)
	e := cdr.NewEncoder(w.client.Order())
	e.WriteString(binding.ID)
	d, err := ctl.ModuleCommand(context.Background(), ModuleName, "drop_session", e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if dropped, _ := d.ReadBool(); !dropped {
		t.Fatal("server session not dropped")
	}
	cm, _ := w.clientT.Module(ModuleName)
	if !cm.(*Module).drop(binding.ID) {
		t.Fatal("client session missing")
	}

	if _, err := w.stub.Call(context.Background(), "reveal", nil); err != nil {
		t.Fatal(err)
	}
	sm, _ := w.serverT.Module(ModuleName)
	if s := sm.(*Module).Stats(); s.Handshakes != 2 {
		t.Fatalf("handshakes = %d", s.Handshakes)
	}
}

func TestServerRejectsWithoutHandshake(t *testing.T) {
	w := newWorld(t)
	if _, err := w.stub.Negotiate(context.Background(), &qos.Proposal{Characteristic: Name}); err != nil {
		t.Fatal(err)
	}
	// Forge a tagged request bypassing the client module: server must
	// reject (no keys for the binding and garbage payload).
	binding := w.stub.Binding()
	out, err := w.client.Invoke(context.Background(), &orb.Invocation{
		Target:    w.ref,
		Operation: "reveal",
		Contexts: giop.ServiceContextList{}.With(giop.SCQoS,
			qos.QoSTag{Characteristic: Name, BindingID: binding.ID, Module: ""}.Encode()),
		ResponseExpected: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Module "" means fallback: the request reaches the skeleton
	// unencrypted but tagged — the skeleton accepts it (binding exists)
	// and the reply is plaintext. This demonstrates why the module name
	// in the tag matters; with the module set, forged plaintext fails.
	_ = out

	out2, err := w.client.Invoke(context.Background(), &orb.Invocation{
		Target:    w.ref,
		Operation: "reveal",
		Contexts: giop.ServiceContextList{}.With(giop.SCQoS,
			qos.QoSTag{Characteristic: Name, BindingID: "forged-binding", Module: ModuleName}.Encode()),
		ResponseExpected: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out2.Err() == nil {
		t.Fatal("forged binding with module tag accepted")
	}
}

func TestDescribeOffersAlgorithms(t *testing.T) {
	impl := NewImpl(0)
	offered := map[string]qos.ParamOffer{}
	for _, po := range impl.Offer().Params {
		offered[po.Name] = po
	}
	po, ok := offered[ParamCipher]
	if !ok || len(po.Choices) != 1 || po.Choices[0] != CipherAES256GCM {
		t.Fatalf("cipher offer = %+v", po)
	}
	// The AEAD's tag is the integrity check: a proposal that still picks a
	// MAC names a parameter nobody offers.
	if po, ok := offered["mac"]; ok {
		t.Fatalf("mac offered: %+v", po)
	}
	r := qos.NewRegistry()
	if err := Register(r); err != nil {
		t.Fatal(err)
	}
	if err := Register(r); err == nil || !strings.Contains(err.Error(), "already") {
		t.Fatalf("err = %v", err)
	}
}
