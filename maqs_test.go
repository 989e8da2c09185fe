package maqs_test

import (
	"bytes"
	"context"
	"testing"

	"maqs"
	"maqs/internal/cdr"
	"maqs/internal/characteristics/compression"
	"maqs/internal/characteristics/encryption"
	"maqs/internal/orb"
)

// docServant serves a compressible document.
type docServant struct{ doc []byte }

func (s *docServant) Invoke(req *maqs.ServerRequest) error {
	switch req.Operation {
	case "fetch":
		req.Out.WriteOctets(s.doc)
		return nil
	default:
		return orb.NewSystemException(orb.ExcBadOperation, 1, "no op %q", req.Operation)
	}
}

func newPair(t *testing.T) (server, client *maqs.System, net *maqs.Network) {
	t.Helper()
	n := maqs.NewNetwork()
	srv, err := maqs.NewSystem(maqs.Options{Transport: n.Host("server")})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := maqs.NewSystem(maqs.Options{Transport: n.Host("client")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cli.Shutdown()
		srv.Shutdown()
	})
	return srv, cli, n
}

func TestSystemEndToEndCompression(t *testing.T) {
	server, client, _ := newPair(t)
	if err := server.Listen("server:5000"); err != nil {
		t.Fatal(err)
	}
	if err := server.LoadModule(compression.ModuleName, nil); err != nil {
		t.Fatal(err)
	}
	if err := client.LoadModule(compression.ModuleName, nil); err != nil {
		t.Fatal(err)
	}

	doc := bytes.Repeat([]byte("all work and no play makes jack a dull boy "), 200)
	skel := maqs.NewServerSkeleton(&docServant{doc: doc})
	if err := skel.AddQoS(compression.NewImpl(0)); err != nil {
		t.Fatal(err)
	}
	ref, err := server.ActivateQoS("doc", "IDL:demo/Doc:1.0", skel,
		maqs.QoSInfo{Characteristics: []string{maqs.Compression}, Modules: []string{compression.ModuleName}})
	if err != nil {
		t.Fatal(err)
	}

	stub := client.Stub(ref)
	binding, err := stub.Negotiate(context.Background(), &maqs.Proposal{
		Characteristic: maqs.Compression,
		Params:         []maqs.ParamProposal{{Name: "level", Desired: maqs.Number(9)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if binding.Contract.Number("level", 0) != 9 {
		t.Fatalf("contract = %+v", binding.Contract)
	}
	d, err := stub.Call(context.Background(), "fetch", nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadOctets()
	if err != nil || !bytes.Equal(got, doc) {
		t.Fatalf("fetch mismatch: %d bytes, %v", len(got), err)
	}
}

func TestSystemStandardRegistryComplete(t *testing.T) {
	sys, err := maqs.NewSystem(maqs.Options{Transport: maqs.NewNetwork()})
	defer sys.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	names := sys.Registry.Names()
	want := []string{maqs.Actuality, maqs.Availability, maqs.Compression, maqs.Encryption, maqs.LoadBalancing}
	if len(names) != len(want) {
		t.Fatalf("registry = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("registry = %v, want %v", names, want)
		}
	}
	// Standard module factories are registered (loadable).
	if err := sys.LoadModule(compression.ModuleName, nil); err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadModule(encryption.ModuleName, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSystemSkipOptions(t *testing.T) {
	sys, err := maqs.NewSystem(maqs.Options{
		Transport:           maqs.NewNetwork(),
		SkipStandardModules: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	if err := sys.LoadModule(compression.ModuleName, nil); err == nil {
		t.Fatal("module factory present despite skip")
	}
}

func TestIORStringRoundTripThroughFacade(t *testing.T) {
	server, client, _ := newPair(t)
	if err := server.Listen("server:5001"); err != nil {
		t.Fatal(err)
	}
	ref, err := server.Activate("obj", "IDL:demo/Obj:1.0", orb.ServantFunc(func(req *maqs.ServerRequest) error {
		req.Out.WriteString("hi")
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := maqs.ParseIOR(ref.String())
	if err != nil {
		t.Fatal(err)
	}
	stub := client.Stub(parsed)
	d, err := stub.Call(context.Background(), "greet", nil)
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := d.ReadString(); s != "hi" {
		t.Fatalf("greet = %q", s)
	}
}

func TestObserverThroughFacade(t *testing.T) {
	server, client, _ := newPair(t)
	if err := server.Listen("server:5002"); err != nil {
		t.Fatal(err)
	}
	ref, err := server.Activate("obj", "IDL:demo/Obj:1.0", orb.ServantFunc(func(req *maqs.ServerRequest) error {
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	stub := client.Stub(ref)
	var seen []maqs.Observation
	stub.AddObserver(func(o maqs.Observation) { seen = append(seen, o) })
	e := cdr.NewEncoder(client.ORB.Order())
	e.WriteString("x")
	for i := 0; i < 4; i++ {
		if _, err := stub.Call(context.Background(), "op", e.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != 4 || seen[3].Operation != "op" || seen[3].RTT <= 0 {
		t.Fatalf("observations = %+v", seen)
	}
}
