package transport

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"maqs/internal/cdr"
	"maqs/internal/giop"
	"maqs/internal/ior"
	"maqs/internal/netsim"
	"maqs/internal/orb"
	"maqs/internal/qos"
)

// xorModule is a toy payload-transforming module: it XORs request and
// reply bodies with a key octet, exercising both the client Send path and
// the server filter path symmetrically.
type xorModule struct {
	key      byte
	sends    atomic.Int64
	inbound  atomic.Int64
	outbound atomic.Int64
	closed   atomic.Bool
}

func newXORFactory() Factory {
	return func(t *Transport, config map[string]string) (Module, error) {
		key := byte('x')
		if k, ok := config["key"]; ok {
			if k == "" {
				return nil, errors.New("empty key")
			}
			key = k[0]
		}
		return &xorModule{key: key}, nil
	}
}

func (m *xorModule) Name() string { return "xor" }

func (m *xorModule) xor(p []byte) []byte {
	out := make([]byte, len(p))
	for i, b := range p {
		out[i] = b ^ m.key
	}
	return out
}

func (m *xorModule) Send(ctx context.Context, inv *orb.Invocation, next Next) (*orb.Outcome, error) {
	m.sends.Add(1)
	wrapped := inv.Clone()
	wrapped.Args = m.xor(inv.Args)
	out, err := next(ctx, wrapped)
	if err != nil {
		return nil, err
	}
	if out.Status == giop.ReplyNoException {
		out.Data = m.xor(out.Data)
	}
	return out, nil
}

func (m *xorModule) ServerFilter() orb.IncomingFilter { return (*xorFilter)(m) }

type xorFilter xorModule

func (f *xorFilter) Inbound(req *orb.ServerRequest) error {
	(*xorModule)(f).inbound.Add(1)
	req.Args = (*xorModule)(f).xor(req.Args)
	return nil
}

func (f *xorFilter) Outbound(req *orb.ServerRequest, status giop.ReplyStatus, body []byte) ([]byte, error) {
	(*xorModule)(f).outbound.Add(1)
	if status != giop.ReplyNoException {
		return body, nil
	}
	return (*xorModule)(f).xor(body), nil
}

func (m *xorModule) Dynamic() *orb.DynamicServant {
	return &orb.DynamicServant{Ops: map[string]orb.DynamicOp{
		"key": {
			Result: cdr.TCLong,
			Handler: func([]cdr.Any) (cdr.Any, error) {
				return cdr.Long(int32(m.key)), nil
			},
		},
	}}
}

func (m *xorModule) Close() error {
	m.closed.Store(true)
	return nil
}

// echoServant echoes a string argument.
type echoServant struct{}

func (echoServant) Invoke(req *orb.ServerRequest) error {
	s, err := req.In().ReadString()
	if err != nil {
		return err
	}
	req.Out.WriteString(s)
	return nil
}

type world struct {
	net             *netsim.Network
	serverORB       *orb.ORB
	clientORB       *orb.ORB
	serverTransport *Transport
	clientTransport *Transport
	ref             *ior.IOR
}

func newWorld(t *testing.T) *world {
	t.Helper()
	n := netsim.NewNetwork()
	server := orb.New(orb.Options{Transport: n.Host("server")})
	if err := server.Listen("server:8000"); err != nil {
		t.Fatal(err)
	}
	st := Install(server)
	if err := st.RegisterFactory("xor", newXORFactory()); err != nil {
		t.Fatal(err)
	}
	ref, err := server.Adapter().ActivateQoS("echo", "IDL:test/Echo:1.0", echoServant{},
		ior.QoSInfo{Characteristics: []string{"Scramble"}, Modules: []string{"xor"}})
	if err != nil {
		t.Fatal(err)
	}
	client := orb.New(orb.Options{Transport: n.Host("client")})
	ct := Install(client)
	if err := ct.RegisterFactory("xor", newXORFactory()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		client.Shutdown()
		server.Shutdown()
	})
	return &world{net: n, serverORB: server, clientORB: client, serverTransport: st, clientTransport: ct, ref: ref}
}

// invoke sends an echo request with optional QoS tag.
func (w *world) invoke(t *testing.T, msg string, tag *qos.QoSTag) (string, error) {
	t.Helper()
	e := cdr.NewEncoder(w.clientORB.Order())
	e.WriteString(msg)
	inv := &orb.Invocation{
		Target:           w.ref,
		Operation:        "echo",
		Args:             e.Bytes(),
		ResponseExpected: true,
		Order:            w.clientORB.Order(),
	}
	if tag != nil {
		inv.Contexts = inv.Contexts.With(giop.SCQoS, tag.Encode())
	}
	out, err := w.clientORB.Invoke(context.Background(), inv)
	if err != nil {
		return "", err
	}
	if err := out.Err(); err != nil {
		return "", err
	}
	return out.Decoder().ReadString()
}

// bindingTag creates a server-side binding so tagged requests resolve.
// The transport tests don't need a full negotiation; they pre-install the
// binding through a skeleton-free echo servant, so the tag only matters
// to the transports. Requests to a plain servant with a QoS tag would be
// rejected by a ServerSkeleton, but here the servant ignores contexts.
func bindingTag(module string) *qos.QoSTag {
	return &qos.QoSTag{Characteristic: "Scramble", BindingID: "b-1", Module: module}
}

func TestPlainRequestTakesIIOP(t *testing.T) {
	w := newWorld(t)
	got, err := w.invoke(t, "plain", nil)
	if err != nil || got != "plain" {
		t.Fatalf("echo = %q, %v", got, err)
	}
	c := w.clientTransport.Counts()
	if c.PlainIIOP != 1 || c.QoSModule != 0 || c.QoSFallback != 0 {
		t.Fatalf("counts = %+v", c)
	}
}

func TestQoSRequestWithoutModuleFallsBack(t *testing.T) {
	w := newWorld(t)
	got, err := w.invoke(t, "fallback", bindingTag(""))
	if err != nil || got != "fallback" {
		t.Fatalf("echo = %q, %v", got, err)
	}
	c := w.clientTransport.Counts()
	if c.QoSFallback != 1 {
		t.Fatalf("counts = %+v", c)
	}
}

func TestQoSRequestWithUnloadedModuleFallsBack(t *testing.T) {
	w := newWorld(t)
	// Module named but not loaded on the client: fallback.
	// The server side would reject the tag (filter error) if the module
	// is missing there, so load it on the server only after checking the
	// client fallback against an untagged server... simplest: module
	// loaded on server, not on client.
	if err := w.serverTransport.Load("xor", nil); err != nil {
		t.Fatal(err)
	}
	// Client fallback sends *plaintext*; the server filter would XOR it
	// and corrupt the message. This asymmetry is exactly why modules
	// must be loaded on both ends before assignment; here we verify the
	// client-side fallback counter only, with the server module unloaded
	// again.
	if err := w.serverTransport.Unload("xor"); err != nil {
		t.Fatal(err)
	}
	got, err := w.invoke(t, "unloaded", bindingTag("xor"))
	if err == nil {
		// Without the module anywhere the tag still names it; the server
		// filter errors out. Accept either a clean fallback error or an
		// exception, but the client counter must say fallback.
		_ = got
	}
	c := w.clientTransport.Counts()
	if c.QoSFallback != 1 {
		t.Fatalf("counts = %+v", c)
	}
}

func TestQoSRequestThroughModule(t *testing.T) {
	w := newWorld(t)
	if err := w.clientTransport.Load("xor", nil); err != nil {
		t.Fatal(err)
	}
	if err := w.serverTransport.Load("xor", nil); err != nil {
		t.Fatal(err)
	}
	got, err := w.invoke(t, "scrambled round trip", bindingTag("xor"))
	if err != nil || got != "scrambled round trip" {
		t.Fatalf("echo = %q, %v", got, err)
	}
	c := w.clientTransport.Counts()
	if c.QoSModule != 1 {
		t.Fatalf("counts = %+v", c)
	}
	mod, _ := w.clientTransport.Module("xor")
	if mod.(*xorModule).sends.Load() != 1 {
		t.Fatal("client module did not send")
	}
	smod, _ := w.serverTransport.Module("xor")
	if smod.(*xorModule).inbound.Load() != 1 || smod.(*xorModule).outbound.Load() != 1 {
		t.Fatal("server filter did not run")
	}
}

func TestModuleActuallyTransformsOnTheWire(t *testing.T) {
	// Load the module on the client only: the server sees XORed garbage,
	// which must NOT equal the original message — proving the module
	// touched the payload rather than being bypassed.
	w := newWorld(t)
	if err := w.clientTransport.Load("xor", nil); err != nil {
		t.Fatal(err)
	}
	got, err := w.invoke(t, "attack at dawn", bindingTag("xor"))
	if err == nil && got == "attack at dawn" {
		t.Fatal("payload arrived un-transformed; module was bypassed")
	}
}

func TestLoadUnloadLifecycle(t *testing.T) {
	w := newWorld(t)
	if err := w.clientTransport.Load("xor", map[string]string{"key": "k"}); err != nil {
		t.Fatal(err)
	}
	if err := w.clientTransport.Load("xor", nil); err == nil {
		t.Fatal("double load accepted")
	}
	if names := w.clientTransport.loadedNames(); len(names) != 1 || names[0] != "xor" {
		t.Fatalf("loaded = %v", names)
	}
	mod, ok := w.clientTransport.Module("xor")
	if !ok {
		t.Fatal("module not found")
	}
	if err := w.clientTransport.Unload("xor"); err != nil {
		t.Fatal(err)
	}
	if !mod.(*xorModule).closed.Load() {
		t.Fatal("Close not called on unload")
	}
	if err := w.clientTransport.Unload("xor"); err == nil {
		t.Fatal("double unload accepted")
	}
	if err := w.clientTransport.Load("nonexistent", nil); err == nil {
		t.Fatal("unknown factory loaded")
	}
	if err := w.clientTransport.Load("xor", map[string]string{"key": ""}); err == nil {
		t.Fatal("factory error swallowed")
	}
}

func TestFactoryRegistrationValidation(t *testing.T) {
	w := newWorld(t)
	if err := w.clientTransport.RegisterFactory("", newXORFactory()); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := w.clientTransport.RegisterFactory("dup", newXORFactory()); err != nil {
		t.Fatal(err)
	}
	if err := w.clientTransport.RegisterFactory("dup", newXORFactory()); err == nil {
		t.Fatal("duplicate factory accepted")
	}
}

func TestRemoteLoadViaCommand(t *testing.T) {
	w := newWorld(t)
	ctl := NewController(w.clientORB, w.ref)
	ctx := context.Background()

	if err := ctl.Load(ctx, "xor", map[string]string{"key": "z"}); err != nil {
		t.Fatal(err)
	}
	mods, err := ctl.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(mods) != 1 || mods[0] != "xor" {
		t.Fatalf("modules = %v", mods)
	}

	// Dynamic interface of the module, via DII-style module command.
	d, err := ctl.ModuleCommand(ctx, "xor", "key", nil)
	if err != nil {
		t.Fatal(err)
	}
	if k, _ := d.ReadLong(); k != int32('z') {
		t.Fatalf("key = %d", k)
	}

	if err := ctl.Unload(ctx, "xor"); err != nil {
		t.Fatal(err)
	}
	mods, err = ctl.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(mods) != 0 {
		t.Fatalf("modules after unload = %v", mods)
	}

	// Command counters moved on the server transport.
	c := w.serverTransport.Counts()
	if c.TransportCommands != 4 || c.ModuleCommands != 1 {
		t.Fatalf("counts = %+v", c)
	}
}

func TestCommandErrors(t *testing.T) {
	w := newWorld(t)
	ctl := NewController(w.clientORB, w.ref)
	ctx := context.Background()

	if err := ctl.Load(ctx, "nonexistent", nil); err == nil {
		t.Fatal("remote load of unknown factory accepted")
	}
	if err := ctl.Unload(ctx, "xor"); err == nil {
		t.Fatal("remote unload of unloaded module accepted")
	}
	if _, err := ctl.ModuleCommand(ctx, "xor", "key", nil); err == nil {
		t.Fatal("command to unloaded module accepted")
	}
	var exc *orb.SystemException
	err := ctl.Load(ctx, "nonexistent", nil)
	if !errors.As(err, &exc) || exc.Name != orb.ExcBadQoS {
		t.Fatalf("err = %v", err)
	}
	// Unknown transport command.
	_, err = ctl.ModuleCommand(ctx, "", "frobnicate", nil)
	if !errors.As(err, &exc) || exc.Name != orb.ExcBadOperation {
		t.Fatalf("err = %v", err)
	}
}

func TestIORAdvertisesModules(t *testing.T) {
	w := newWorld(t)
	info, ok, err := w.ref.QoS()
	if err != nil || !ok {
		t.Fatal(err)
	}
	if len(info.Modules) != 1 || info.Modules[0] != "xor" {
		t.Fatalf("modules = %v", info.Modules)
	}
	if !strings.HasPrefix(w.ref.String(), "IOR:") {
		t.Fatal("stringification broken")
	}
}

// releasingModule is xorModule plus per-binding state it is told to drop.
type releasingModule struct {
	xorModule
	released []string
}

func (m *releasingModule) ReleaseBinding(id string) { m.released = append(m.released, id) }

func TestReleaseBindingReachesStatefulModules(t *testing.T) {
	w := newWorld(t)
	tr := w.clientTransport
	stateful := &releasingModule{}
	if err := tr.RegisterFactory("stateful", func(*Transport, map[string]string) (Module, error) {
		return stateful, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := tr.RegisterChain("stack", "xor", "stateful"); err != nil {
		t.Fatal(err)
	}
	if err := tr.Load("stack", nil); err != nil { // loads both members too
		t.Fatal(err)
	}
	tr.ReleaseBinding("stateful", "b-1") // addressed directly
	tr.ReleaseBinding("stack", "b-2")    // through the chain it is a member of
	tr.ReleaseBinding("xor", "b-3")      // stateless module: nothing to tell
	tr.ReleaseBinding("", "b-4")         // binding without a module
	tr.ReleaseBinding("unloaded", "b-5")
	if got := strings.Join(stateful.released, ","); got != "b-1,b-2" {
		t.Fatalf("released = %q", got)
	}
}
