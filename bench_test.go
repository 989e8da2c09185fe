// Benchmarks for the experiment index of DESIGN.md §4: one family per
// experiment (E1..E10). The table-producing harness is cmd/maqs-bench;
// these benches measure the same code paths under testing.B so regressions
// show up in go test -bench output.
package maqs_test

import (
	"bytes"
	"context"
	"crypto/ecdh"
	"crypto/rand"
	"fmt"
	"testing"
	"time"

	"maqs"
	"maqs/internal/cdr"
	"maqs/internal/characteristics/actuality"
	"maqs/internal/characteristics/compression"
	"maqs/internal/characteristics/encryption"
	"maqs/internal/characteristics/loadbalance"
	"maqs/internal/characteristics/replication"
	"maqs/internal/giop"
	"maqs/internal/idl"
	"maqs/internal/idl/gen"
	"maqs/internal/orb"
	"maqs/internal/qos"
	"maqs/internal/qos/transport"
)

// benchEcho is the shared echo servant.
type benchEcho struct{}

func (benchEcho) Invoke(req *maqs.ServerRequest) error {
	p, err := req.In().ReadOctets()
	if err != nil {
		return err
	}
	req.Out.WriteOctets(p)
	return nil
}

// benchWorld wires a server and client System over an in-memory network.
type benchWorld struct {
	net    *maqs.Network
	server *maqs.System
	client *maqs.System
}

func newBenchWorld(b *testing.B) *benchWorld {
	b.Helper()
	n := maqs.NewNetwork()
	server, err := maqs.NewSystem(maqs.Options{Transport: n.Host("server")})
	if err != nil {
		b.Fatal(err)
	}
	if err := server.Listen("server:1"); err != nil {
		b.Fatal(err)
	}
	client, err := maqs.NewSystem(maqs.Options{Transport: n.Host("client")})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		client.Shutdown()
		server.Shutdown()
	})
	return &benchWorld{net: n, server: server, client: client}
}

func (w *benchWorld) activateEcho(b *testing.B, impls ...maqs.Impl) *maqs.IOR {
	b.Helper()
	skel := maqs.NewServerSkeleton(benchEcho{})
	for _, impl := range impls {
		if err := skel.AddQoS(impl); err != nil {
			b.Fatal(err)
		}
	}
	var chars, modules []string
	for _, impl := range impls {
		chars = append(chars, impl.Characteristic().Name)
	}
	ref, err := w.server.ActivateQoS("echo", "IDL:bench/Echo:1.0", skel,
		maqs.QoSInfo{Characteristics: chars, Modules: modules})
	if err != nil {
		b.Fatal(err)
	}
	return ref
}

func encodeOctets(order cdr.ByteOrder, p []byte) []byte {
	e := cdr.NewEncoder(order)
	e.WriteOctets(p)
	return e.Bytes()
}

func mustCall(b testing.TB, stub *maqs.Stub, op string, args []byte) {
	b.Helper()
	if _, err := stub.Call(context.Background(), op, args); err != nil {
		b.Fatal(err)
	}
}

// nullImpl is a pass-through QoS implementation for interception benches.
func nullImpl() maqs.Impl {
	return &qos.BaseImpl{
		Desc: &qos.Characteristic{Name: "Null"},
		Capability: &qos.Offer{Characteristic: "Null",
			Params: []qos.ParamOffer{{Name: "x", Kind: maqs.KindNumber, Min: 0, Max: 1, Default: maqs.Number(0)}}},
	}
}

// --- E1: interception overhead ---------------------------------------------

func BenchmarkE1Interception(b *testing.B) {
	for _, size := range []int{0, 1024} {
		payload := bytes.Repeat([]byte{0xA5}, size)
		b.Run(fmt.Sprintf("plain/%dB", size), func(b *testing.B) {
			w := newBenchWorld(b)
			ref := w.activateEcho(b, nullImpl())
			stub := w.client.Stub(ref)
			args := encodeOctets(w.client.ORB.Order(), payload)
			mustCall(b, stub, "echo", args)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustCall(b, stub, "echo", args)
			}
		})
		b.Run(fmt.Sprintf("bound/%dB", size), func(b *testing.B) {
			w := newBenchWorld(b)
			ref := w.activateEcho(b, nullImpl())
			if err := w.client.Registry.Register(&qos.Characteristic{Name: "Null"}, nil); err != nil {
				b.Fatal(err)
			}
			stub := w.client.Stub(ref)
			if _, err := stub.Negotiate(context.Background(), &maqs.Proposal{Characteristic: "Null"}); err != nil {
				b.Fatal(err)
			}
			args := encodeOctets(w.client.ORB.Order(), payload)
			mustCall(b, stub, "echo", args)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustCall(b, stub, "echo", args)
			}
		})
	}
}

// --- E2: dispatch branches --------------------------------------------------

func BenchmarkE2Dispatch(b *testing.B) {
	w := newBenchWorld(b)
	ref := w.activateEcho(b, nullImpl())
	args := encodeOctets(w.client.ORB.Order(), []byte("x"))
	ctx := context.Background()

	b.Run("plainIIOP", func(b *testing.B) {
		stub := w.client.Stub(ref)
		mustCall(b, stub, "echo", args)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mustCall(b, stub, "echo", args)
		}
	})
	b.Run("commandTransport", func(b *testing.B) {
		ctl := transport.NewController(w.client.ORB, ref)
		if _, err := ctl.List(ctx); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ctl.List(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E3: replication --------------------------------------------------------

func BenchmarkE3Replication(b *testing.B) {
	benchReplication(b, 0)
}

// BenchmarkE3ReplicationWAN runs the same fan-out over links with real
// propagation delay. With asynchronous dispatch the group's latency is
// the slowest replica's round trip (max-of-k), so k=5 tracks k=1 here —
// the zero-latency family above measures serialized per-replica CPU
// instead, which is k-linear on a single core by construction.
func BenchmarkE3ReplicationWAN(b *testing.B) {
	benchReplication(b, 200*time.Microsecond)
}

// newClusterStub deploys n servers of one echo object on net, each with the
// QoS implementation impl builds from the member endpoints, and returns a
// client stub on the cluster reference (profile: the first server; alternate
// endpoints: all of them) bound by proposal. Replication and load balancing
// share it: both spread one binding over a group.
func newClusterStub(tb testing.TB, net *maqs.Network, n int, impl func(endpoints []string) maqs.Impl, proposal *maqs.Proposal) (*maqs.System, *maqs.Stub) {
	tb.Helper()
	endpoints := make([]string, n)
	for i := range endpoints {
		endpoints[i] = fmt.Sprintf("member%d:1", i)
	}
	var cluster *maqs.IOR
	for i, ep := range endpoints {
		sys, err := maqs.NewSystem(maqs.Options{Transport: net.Host(fmt.Sprintf("member%d", i))})
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(sys.Shutdown)
		if err := sys.Listen(ep); err != nil {
			tb.Fatal(err)
		}
		skel := maqs.NewServerSkeleton(benchEcho{})
		if err := skel.AddQoS(impl(endpoints)); err != nil {
			tb.Fatal(err)
		}
		ref, err := sys.ActivateQoS("echo", "IDL:bench/Echo:1.0", skel,
			maqs.QoSInfo{Characteristics: []string{proposal.Characteristic}})
		if err != nil {
			tb.Fatal(err)
		}
		if i == 0 {
			cluster = ref.Clone()
			cluster.SetAlternateEndpoints(endpoints)
		}
	}
	client, err := maqs.NewSystem(maqs.Options{Transport: net.Host("client")})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(client.Shutdown)
	stub := client.Stub(cluster)
	if _, err := stub.Negotiate(context.Background(), proposal); err != nil {
		tb.Fatal(err)
	}
	return client, stub
}

// newReplicatedStub is a stub bound to Availability over k active replicas.
func newReplicatedStub(tb testing.TB, net *maqs.Network, k int) (*maqs.System, *maqs.Stub) {
	return newClusterStub(tb, net, k,
		func(endpoints []string) maqs.Impl { return replication.NewImpl(8, endpoints, nil) },
		&maqs.Proposal{Characteristic: maqs.Availability,
			Params: []maqs.ParamProposal{{Name: "replicas", Desired: maqs.Number(float64(k))}}})
}

// newBalancedStub is a stub bound to LoadBalancing over four workers.
func newBalancedStub(tb testing.TB, strategy string) (*maqs.System, *maqs.Stub) {
	return newClusterStub(tb, maqs.NewNetwork(), 4,
		func(endpoints []string) maqs.Impl { return loadbalance.NewImpl(0, endpoints) },
		&maqs.Proposal{Characteristic: maqs.LoadBalancing,
			Params: []maqs.ParamProposal{{Name: "strategy", Desired: maqs.Text(strategy)}}})
}

func benchReplication(b *testing.B, latency time.Duration) {
	for _, k := range []int{1, 3, 5} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			n := maqs.NewNetwork()
			if latency > 0 {
				n.SetDefaultLink(maqs.Link{Latency: latency})
			}
			client, stub := newReplicatedStub(b, n, k)
			args := encodeOctets(client.ORB.Order(), []byte("payload"))
			mustCall(b, stub, "echo", args)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustCall(b, stub, "echo", args)
			}
		})
	}
}

// --- E4: load balancing ------------------------------------------------------

func BenchmarkE4LoadBalance(b *testing.B) {
	for _, strategy := range []string{
		loadbalance.StrategyRoundRobin,
		loadbalance.StrategyRandom,
		loadbalance.StrategyLeastLoaded,
		loadbalance.StrategyWeighted,
	} {
		b.Run(strategy, func(b *testing.B) {
			client, stub := newBalancedStub(b, strategy)
			args := encodeOctets(client.ORB.Order(), []byte("job"))
			mustCall(b, stub, "echo", args)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustCall(b, stub, "echo", args)
			}
		})
	}
}

// --- E5: compression over a constrained link ---------------------------------

func BenchmarkE5Compression(b *testing.B) {
	doc := bytes.Repeat([]byte("quality of service for everyone "), 128) // 4 KiB
	for _, mode := range []string{"plain", "compressed"} {
		b.Run(mode+"/4KiB@2Mbit", func(b *testing.B) {
			n := maqs.NewNetwork()
			n.SetLink("client", "server", maqs.Link{BitsPerSec: 2_000_000})
			server, err := maqs.NewSystem(maqs.Options{Transport: n.Host("server"), RequestTimeout: time.Minute})
			if err != nil {
				b.Fatal(err)
			}
			defer server.Shutdown()
			if err := server.Listen("server:1"); err != nil {
				b.Fatal(err)
			}
			if err := server.LoadModule(compression.ModuleName, nil); err != nil {
				b.Fatal(err)
			}
			skel := maqs.NewServerSkeleton(benchEcho{})
			if err := skel.AddQoS(compression.NewImpl(0)); err != nil {
				b.Fatal(err)
			}
			ref, err := server.ActivateQoS("echo", "IDL:bench/Echo:1.0", skel,
				maqs.QoSInfo{Characteristics: []string{maqs.Compression}, Modules: []string{compression.ModuleName}})
			if err != nil {
				b.Fatal(err)
			}
			client, err := maqs.NewSystem(maqs.Options{Transport: n.Host("client"), RequestTimeout: time.Minute})
			if err != nil {
				b.Fatal(err)
			}
			defer client.Shutdown()
			if err := client.LoadModule(compression.ModuleName, nil); err != nil {
				b.Fatal(err)
			}
			stub := client.Stub(ref)
			if mode == "compressed" {
				if _, err := stub.Negotiate(context.Background(), &maqs.Proposal{
					Characteristic: maqs.Compression,
				}); err != nil {
					b.Fatal(err)
				}
			}
			args := encodeOctets(client.ORB.Order(), doc)
			mustCall(b, stub, "echo", args)
			b.SetBytes(int64(len(doc)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustCall(b, stub, "echo", args)
			}
		})
	}
}

// --- E6: encryption -----------------------------------------------------------

func BenchmarkE6Encryption(b *testing.B) {
	for _, size := range []int{1 << 10, 64 << 10} {
		payload := bytes.Repeat([]byte{0x5A}, size)
		for _, mode := range []string{"plain", "secure"} {
			b.Run(fmt.Sprintf("%s/%dKiB", mode, size>>10), func(b *testing.B) {
				w := newBenchWorld(b)
				if err := w.server.LoadModule(encryption.ModuleName, nil); err != nil {
					b.Fatal(err)
				}
				if err := w.client.LoadModule(encryption.ModuleName, nil); err != nil {
					b.Fatal(err)
				}
				skel := maqs.NewServerSkeleton(benchEcho{})
				if err := skel.AddQoS(encryption.NewImpl(0)); err != nil {
					b.Fatal(err)
				}
				ref, err := w.server.ActivateQoS("secret", "IDL:bench/Secret:1.0", skel,
					maqs.QoSInfo{Characteristics: []string{maqs.Encryption}, Modules: []string{encryption.ModuleName}})
				if err != nil {
					b.Fatal(err)
				}
				stub := w.client.Stub(ref)
				if mode == "secure" {
					if _, err := stub.Negotiate(context.Background(), &maqs.Proposal{
						Characteristic: maqs.Encryption,
					}); err != nil {
						b.Fatal(err)
					}
				}
				args := encodeOctets(w.client.ORB.Order(), payload)
				mustCall(b, stub, "echo", args)
				b.SetBytes(int64(size))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					mustCall(b, stub, "echo", args)
				}
			})
		}
	}
}

// --- module codecs in isolation -----------------------------------------------

// serverFilterRoundTrip drives one module's server filter with no ORB and
// no network around it: Outbound transforms body into a frame (wrap /
// seal), Inbound turns that frame back (unwrap / open). What remains is
// the codec cost alone — the rung E5/E6 add on top of the plain echo.
func serverFilterRoundTrip(b *testing.B, f orb.IncomingFilter, tag qos.QoSTag, body []byte) {
	b.Helper()
	req := &orb.ServerRequest{
		Operation: "echo",
		Contexts:  giop.ServiceContextList{}.With(giop.SCQoS, tag.Encode()),
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame, err := f.Outbound(req, giop.ReplyNoException, body)
		if err != nil {
			b.Fatal(err)
		}
		req.Args = frame
		if err := f.Inbound(req); err != nil {
			b.Fatal(err)
		}
		if len(req.Args) != len(body) {
			b.Fatalf("round trip returned %d bytes, want %d", len(req.Args), len(body))
		}
	}
}

// BenchmarkModuleWrap is the flate module's wrap + unwrap of a 4 KiB text
// payload.
func BenchmarkModuleWrap(b *testing.B) {
	mod, err := compression.NewModule(nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	doc := bytes.Repeat([]byte("quality of service for everyone "), 128)
	serverFilterRoundTrip(b, mod.ServerFilter(),
		qos.QoSTag{Characteristic: maqs.Compression, BindingID: "b", Module: compression.ModuleName}, doc)
}

// BenchmarkModuleSeal is the secure module's seal + open of a 1 KiB
// payload under one established session.
func BenchmarkModuleSeal(b *testing.B) {
	mod, err := encryption.NewModule(nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	// The handshake endpoint is the module's own dynamic interface; any
	// X25519 public key establishes a session for the binding.
	peer, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := mod.Dynamic().Ops["handshake"].Handler(
		[]cdr.Any{cdr.Str("b"), cdr.Octets(peer.PublicKey().Bytes())}); err != nil {
		b.Fatal(err)
	}
	serverFilterRoundTrip(b, mod.ServerFilter(),
		qos.QoSTag{Characteristic: maqs.Encryption, BindingID: "b", Module: encryption.ModuleName},
		bytes.Repeat([]byte{0x5A}, 1<<10))
}

// --- E7: actuality -------------------------------------------------------------

func BenchmarkE7Actuality(b *testing.B) {
	run := func(b *testing.B, maxAgeMS float64) {
		w := newBenchWorld(b)
		skel := maqs.NewServerSkeleton(orb.ServantFunc(func(req *maqs.ServerRequest) error {
			req.Out.WriteLongLong(42)
			return nil
		}))
		impl := actuality.NewImpl(0, time.Minute)
		if err := skel.AddQoS(impl); err != nil {
			b.Fatal(err)
		}
		ref, err := w.server.ActivateQoS("clock", "IDL:bench/Clock:1.0", skel,
			maqs.QoSInfo{Characteristics: []string{maqs.Actuality}})
		if err != nil {
			b.Fatal(err)
		}
		stub := w.client.Stub(ref)
		if _, err := stub.Negotiate(context.Background(), &maqs.Proposal{
			Characteristic: maqs.Actuality,
			Params:         []maqs.ParamProposal{{Name: "max_age_ms", Desired: maqs.Number(maxAgeMS)}},
		}); err != nil {
			b.Fatal(err)
		}
		mustCall(b, stub, "get_value", nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mustCall(b, stub, "get_value", nil)
		}
	}
	b.Run("uncached", func(b *testing.B) { run(b, 0) })
	b.Run("cached60s", func(b *testing.B) { run(b, 60_000) })
}

// --- E8: negotiation -------------------------------------------------------------

func BenchmarkE8Negotiation(b *testing.B) {
	w := newBenchWorld(b)
	ref := w.activateEcho(b, nullImpl())
	if err := w.client.Registry.Register(&qos.Characteristic{Name: "Null"}, nil); err != nil {
		b.Fatal(err)
	}
	proposal := &maqs.Proposal{Characteristic: "Null"}
	b.Run("negotiateRelease", func(b *testing.B) {
		stub := w.client.Stub(ref)
		for i := 0; i < b.N; i++ {
			if _, err := stub.Negotiate(context.Background(), proposal); err != nil {
				b.Fatal(err)
			}
			if err := stub.Release(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("renegotiate", func(b *testing.B) {
		stub := w.client.Stub(ref)
		if _, err := stub.Negotiate(context.Background(), proposal); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := stub.Renegotiate(context.Background(), proposal); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E9: weaving ------------------------------------------------------------------

const benchQIDL = `
module bench {
  struct Item { string name; double value; };
  qos Guard { param long strength = 2; void guard_rotate(in string reason); };
  interface Store supports Guard {
    void put(in string key, in Item item);
    Item get(in string key);
    long add(in long a, in long b);
  };
};
`

func BenchmarkE9Weave(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spec, err := idl.Parse("bench.qidl", benchQIDL)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := gen.Generate(spec, gen.Options{Source: "bench.qidl"}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE9StaticVsDII(b *testing.B) {
	w := newBenchWorld(b)
	ref := w.activateEcho(b)
	args := encodeOctets(w.client.ORB.Order(), []byte("x"))
	b.Run("static", func(b *testing.B) {
		stub := w.client.Stub(ref)
		mustCall(b, stub, "echo", args)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mustCall(b, stub, "echo", args)
		}
	})
	b.Run("dii", func(b *testing.B) {
		octets := cdr.SequenceOf(cdr.TCOctet)
		for i := 0; i < b.N; i++ {
			req := w.client.ORB.CreateRequest(ref, "echo").
				AddArg("p", cdr.Octets([]byte("x")), orb.ArgIn).
				SetResultType(octets)
			if err := req.Invoke(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E10: module control -------------------------------------------------------------

func BenchmarkE10ModuleControl(b *testing.B) {
	w := newBenchWorld(b)
	ref := w.activateEcho(b)
	ctl := transport.NewController(w.client.ORB, ref)
	ctx := context.Background()
	b.Run("remoteLoadUnload", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := ctl.Load(ctx, compression.ModuleName, nil); err != nil {
				b.Fatal(err)
			}
			if err := ctl.Unload(ctx, compression.ModuleName); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("localLoadUnload", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := w.server.LoadModule(compression.ModuleName, nil); err != nil {
				b.Fatal(err)
			}
			if err := w.server.Transport.Unload(compression.ModuleName); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablations: costs of optional design features -----------------------------

// BenchmarkAblationVoting isolates the cost of majority voting on top of
// active replication (k=3): the fan-out is identical, only the vote
// differs.
func BenchmarkAblationVoting(b *testing.B) {
	for _, voting := range []bool{false, true} {
		name := "novote"
		if voting {
			name = "vote"
		}
		b.Run(name, func(b *testing.B) {
			n := maqs.NewNetwork()
			endpoints := []string{"r0:1", "r1:1", "r2:1"}
			var firstRef *maqs.IOR
			for i, ep := range endpoints {
				sys, err := maqs.NewSystem(maqs.Options{Transport: n.Host(fmt.Sprintf("r%d", i))})
				if err != nil {
					b.Fatal(err)
				}
				defer sys.Shutdown()
				if err := sys.Listen(ep); err != nil {
					b.Fatal(err)
				}
				skel := maqs.NewServerSkeleton(benchEcho{})
				if err := skel.AddQoS(replication.NewImpl(8, endpoints, nil)); err != nil {
					b.Fatal(err)
				}
				ref, err := sys.ActivateQoS("echo", "IDL:bench/Echo:1.0", skel,
					maqs.QoSInfo{Characteristics: []string{maqs.Availability}})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					firstRef = ref
				}
			}
			cluster := firstRef.Clone()
			cluster.SetAlternateEndpoints(endpoints)
			client, err := maqs.NewSystem(maqs.Options{Transport: n.Host("client")})
			if err != nil {
				b.Fatal(err)
			}
			defer client.Shutdown()
			stub := client.Stub(cluster)
			if _, err := stub.Negotiate(context.Background(), &maqs.Proposal{
				Characteristic: maqs.Availability,
				Params: []maqs.ParamProposal{
					{Name: "replicas", Desired: maqs.Number(3)},
					{Name: "voting", Desired: maqs.Flag(voting)},
				},
			}); err != nil {
				b.Fatal(err)
			}
			args := encodeOctets(client.ORB.Order(), []byte("ballot"))
			mustCall(b, stub, "echo", args)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustCall(b, stub, "echo", args)
			}
		})
	}
}

// BenchmarkAblationChain compares a single transport module against a
// two-member chain carrying the same payload (the composition overhead).
func BenchmarkAblationChain(b *testing.B) {
	payload := bytes.Repeat([]byte("compressible payload body "), 64)
	run := func(b *testing.B, module string, setup func(*maqs.System) error) {
		w := newBenchWorld(b)
		if err := setup(w.server); err != nil {
			b.Fatal(err)
		}
		if err := setup(w.client); err != nil {
			b.Fatal(err)
		}
		impl := &qos.BaseImpl{
			Desc: &qos.Characteristic{Name: "Pipe"},
			Capability: &qos.Offer{Characteristic: "Pipe",
				Params: []qos.ParamOffer{{Name: "x", Kind: maqs.KindNumber, Min: 0, Max: 1, Default: maqs.Number(0)}}},
		}
		skel := maqs.NewServerSkeleton(benchEcho{})
		if err := skel.AddQoS(&moduleAssigningImpl{BaseImpl: *impl, module: module}); err != nil {
			b.Fatal(err)
		}
		ref, err := w.server.ActivateQoS("echo", "IDL:bench/Echo:1.0", skel,
			maqs.QoSInfo{Characteristics: []string{"Pipe"}, Modules: []string{module}})
		if err != nil {
			b.Fatal(err)
		}
		if err := w.client.Registry.Register(&qos.Characteristic{Name: "Pipe"}, nil); err != nil {
			b.Fatal(err)
		}
		stub := w.client.Stub(ref)
		if _, err := stub.Negotiate(context.Background(), &maqs.Proposal{Characteristic: "Pipe"}); err != nil {
			b.Fatal(err)
		}
		args := encodeOctets(w.client.ORB.Order(), payload)
		mustCall(b, stub, "echo", args)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mustCall(b, stub, "echo", args)
		}
	}
	b.Run("flateOnly", func(b *testing.B) {
		run(b, compression.ModuleName, func(s *maqs.System) error {
			return s.LoadModule(compression.ModuleName, nil)
		})
	})
	b.Run("flateSecureChain", func(b *testing.B) {
		run(b, "zipcrypt", func(s *maqs.System) error {
			if err := s.Transport.RegisterChain("zipcrypt", compression.ModuleName, encryption.ModuleName); err != nil {
				return err
			}
			return s.LoadModule("zipcrypt", nil)
		})
	})
}

// moduleAssigningImpl assigns an arbitrary module to admitted bindings.
type moduleAssigningImpl struct {
	qos.BaseImpl
	module string
}

func (i *moduleAssigningImpl) BindingUp(b *maqs.Binding) error {
	b.Module = i.module
	return nil
}

// BenchmarkAblationFragmentation compares unfragmented and fragmented
// delivery of a 256 KiB payload over the in-memory link.
func BenchmarkAblationFragmentation(b *testing.B) {
	payload := make([]byte, 256<<10)
	for _, maxFrag := range []int{0, 16 << 10, 64 << 10} {
		name := "off"
		if maxFrag > 0 {
			name = fmt.Sprintf("%dKiB", maxFrag>>10)
		}
		b.Run(name, func(b *testing.B) {
			n := maqs.NewNetwork()
			server := orb.New(orb.Options{Transport: n.Host("server"), MaxFragment: maxFrag})
			if err := server.Listen("server:1"); err != nil {
				b.Fatal(err)
			}
			defer server.Shutdown()
			ref, err := server.Adapter().Activate("echo", "IDL:bench/Echo:1.0",
				orb.ServantFunc(func(req *maqs.ServerRequest) error {
					p, err := req.In().ReadOctets()
					if err != nil {
						return err
					}
					req.Out.WriteOctets(p)
					return nil
				}))
			if err != nil {
				b.Fatal(err)
			}
			client := orb.New(orb.Options{Transport: n.Host("client"), MaxFragment: maxFrag})
			defer client.Shutdown()
			args := encodeOctets(client.Order(), payload)
			call := func() {
				out, err := client.Invoke(context.Background(), &maqs.Invocation{
					Target: ref, Operation: "echo", Args: args, ResponseExpected: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := out.Err(); err != nil {
					b.Fatal(err)
				}
			}
			call()
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				call()
			}
		})
	}
}
