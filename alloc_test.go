package maqs_test

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"

	"maqs"
	"maqs/internal/characteristics/compression"
	"maqs/internal/characteristics/encryption"
	"maqs/internal/characteristics/loadbalance"
	"maqs/internal/qos"
)

// The alloc-regression gates of the invocation hot path: one echo round
// trip over the in-memory network — stub, mediator, ORB, GIOP framing,
// server dispatch and back — must stay within the allocation count
// measured on this tree plus one (scheduler noise), so that a single new
// per-call allocation fails CI. History of the plain round trip: 42 before
// pooling, 24 before the server-side decode pools and FrameReader body
// reuse, 18 until the default deadline became a value and the header
// decode stopped copying, 5 since (docs/PERFORMANCE.md). Two of the 5 are
// the in-memory network's own (it copies every Write into a segment): over
// a real socket the call makes 3, which TestEchoCallAllocsTCP gates —
// and only a real net.Conn shows what address formatting costs.

// allocWorld is one client/server pair over the in-memory network with an
// echo object activated; impl, when set, makes it QoS-capable and binds the
// stub to impl's characteristic, through module unless that is "".
type allocWorld struct {
	client *maqs.System
	stub   *maqs.Stub
}

func newAllocWorld(t *testing.T, serverOpts maqs.Options, module string, impl maqs.Impl) *allocWorld {
	t.Helper()
	n := maqs.NewNetwork()
	serverOpts.Transport = n.Host("server")
	return newAllocWorldOn(t, serverOpts, maqs.Options{Transport: n.Host("client")}, "server:1", module, impl)
}

// newAllocWorldOn builds the pair on whatever transport the options name
// (none: loopback TCP), the server listening on addr.
func newAllocWorldOn(t *testing.T, serverOpts, clientOpts maqs.Options, addr, module string, impl maqs.Impl) *allocWorld {
	t.Helper()
	server, err := maqs.NewSystem(serverOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Shutdown)
	if err := server.Listen(addr); err != nil {
		t.Fatal(err)
	}
	client, err := maqs.NewSystem(clientOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Shutdown)

	if impl == nil {
		ref, err := server.Activate("echo", "IDL:test/Echo:1.0", benchEcho{})
		if err != nil {
			t.Fatal(err)
		}
		return &allocWorld{client: client, stub: client.Stub(ref)}
	}
	name := impl.Characteristic().Name
	info := maqs.QoSInfo{Characteristics: []string{name}}
	if module != "" {
		info.Modules = []string{module}
		for _, sys := range []*maqs.System{server, client} {
			if err := sys.LoadModule(module, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, known := client.Registry.Lookup(name); !known {
		// The pass-through characteristic of the seam gates: a mediator
		// that does nothing, so the stub still runs its mediator bracket.
		err := client.Registry.Register(&qos.Characteristic{Name: name},
			func(*qos.Stub, *qos.Binding) (qos.Mediator, error) { return &qos.BaseMediator{Char: name}, nil })
		if err != nil {
			t.Fatal(err)
		}
	}
	skel := maqs.NewServerSkeleton(benchEcho{})
	if err := skel.AddQoS(impl); err != nil {
		t.Fatal(err)
	}
	ref, err := server.ActivateQoS("echo", "IDL:test/Echo:1.0", skel, info)
	if err != nil {
		t.Fatal(err)
	}
	stub := client.Stub(ref)
	if _, err := stub.Negotiate(context.Background(), &maqs.Proposal{Characteristic: name}); err != nil {
		t.Fatal(err)
	}
	return &allocWorld{client: client, stub: stub}
}

// gateAllocs warms the path (connection setup, pool population, session
// handshake), then fails when call allocates more than budget objects.
func gateAllocs(t *testing.T, what string, budget float64, call func()) {
	t.Helper()
	if raceDetector {
		t.Skip("allocation counts are not comparable under the race detector (see race_on_test.go)")
	}
	for i := 0; i < 10; i++ {
		call()
	}
	avg := testing.AllocsPerRun(200, call)
	if avg > budget {
		t.Fatalf("%s allocates %.1f objects/op, budget is %.0f (measured + 1)", what, avg, budget)
	}
	t.Logf("%s: %.1f allocs/op (budget %.0f)", what, avg, budget)
}

func (w *allocWorld) echo(t *testing.T, args []byte) func() {
	ctx := context.Background()
	return func() {
		if _, err := w.stub.Call(ctx, "echo", args); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEchoCallAllocs gates the plain synchronous round trip: measured 5 —
// the stub's Invocation, the Outcome and its data, and the in-memory
// network's two segment copies. The server allocates nothing.
func TestEchoCallAllocs(t *testing.T) {
	w := newAllocWorld(t, maqs.Options{}, "", nil)
	args := encodeOctets(w.client.ORB.Order(), []byte("alloc gate payload"))
	gateAllocs(t, "echo round trip", 6, w.echo(t, args))
}

// TestEchoCallAllocsTCP is the same gate over loopback TCP: measured 3.
// The in-memory gates cannot see what only a real net.Conn pays — four
// address-string allocations per call (Profile.Addr on the way out,
// RemoteAddr().String() on the way in) sat under a "measured + 1" gate
// until the repository benchmark, which runs on sockets, counted them.
func TestEchoCallAllocsTCP(t *testing.T) {
	w := newAllocWorldOn(t, maqs.Options{}, maqs.Options{}, "127.0.0.1:0", "", nil)
	args := encodeOctets(w.client.ORB.Order(), []byte("alloc gate payload"))
	gateAllocs(t, "echo round trip over TCP", 4, w.echo(t, args))
}

// TestBoundEchoAllocs gates the paper's seam: the same echo bound to a
// characteristic that does nothing — tagged request, mediator bracket,
// binding lookup, routing, prolog and epilog — must cost what the plain
// call costs. Measured 5, so the budget is TestEchoCallAllocs' own: what a
// bound request repeats lives with the binding (its encoded tag and context
// list), with the pooled dispatch job (context array and payloads) and with
// the connection (the decoded tag), not on the heap per call.
func TestBoundEchoAllocs(t *testing.T) {
	w := newAllocWorld(t, maqs.Options{}, "", nullImpl())
	args := encodeOctets(w.client.ORB.Order(), []byte("alloc gate payload"))
	gateAllocs(t, "bound echo round trip", 6, w.echo(t, args))
}

// TestBoundEchoAllocsTCP is the seam gate over loopback TCP: measured 3,
// TestEchoCallAllocsTCP's figure.
func TestBoundEchoAllocsTCP(t *testing.T) {
	w := newAllocWorldOn(t, maqs.Options{}, maqs.Options{}, "127.0.0.1:0", "", nullImpl())
	args := encodeOctets(w.client.ORB.Order(), []byte("alloc gate payload"))
	gateAllocs(t, "bound echo round trip over TCP", 4, w.echo(t, args))
}

// TestReplicationAllocs gates the active fan-out: per call the stub's
// invocation and the reply table; per replica one routed copy of the
// invocation plus what a plain round trip costs after the first (outcome,
// its data, two in-memory segments) — measured 7 at k=1 and 17 at k=3
// (2 + 5k). The replica's reference, binding, encoded tag and context list
// are built once per member (qos.Members), not per call.
func TestReplicationAllocs(t *testing.T) {
	for _, c := range []struct {
		k      int
		budget float64
	}{{1, 8}, {3, 18}} {
		client, stub := newReplicatedStub(t, maqs.NewNetwork(), c.k)
		args := encodeOctets(client.ORB.Order(), []byte("alloc gate payload"))
		gateAllocs(t, fmt.Sprintf("replicated round trip, k=%d", c.k), c.budget,
			func() { mustCall(t, stub, "echo", args) })
	}
}

// TestLoadBalanceAllocs gates the balancer: a plain round trip plus the
// routed copy, plus what the characteristic itself exchanges — the worker's
// load report encoded into a reply context and decoded again (5). Measured
// 11.
func TestLoadBalanceAllocs(t *testing.T) {
	client, stub := newBalancedStub(t, loadbalance.StrategyRoundRobin)
	args := encodeOctets(client.ORB.Order(), []byte("alloc gate payload"))
	gateAllocs(t, "load-balanced round trip", 12, func() { mustCall(t, stub, "echo", args) })
}

// TestServerDispatchAllocs is the same gate with the server's bounded
// dispatch pools enabled: the worker-pool path adds queue handoff, pooled
// args scratch and a pooled ServerRequest, and must not reintroduce
// per-request garbage. Measured 5 — the same as goroutine-per-request,
// because both paths run the one pooled job.
func TestServerDispatchAllocs(t *testing.T) {
	w := newAllocWorld(t, maqs.Options{DispatchWorkers: 4, DispatchQueueDepth: 64}, "", nil)
	args := encodeOctets(w.client.ORB.Order(), []byte("alloc gate payload"))
	gateAllocs(t, "bounded-dispatch round trip", 6, w.echo(t, args))
}

// TestEchoAsyncAllocs gates the asynchronous fast path: CallAsync + Wait
// for one echo runs the synchronous call's send and waits on the same
// pooled Future (whose completion signal is made once per Future, not once
// per call) — the dispatch on the calling goroutine, the completion on the
// connection's read loop — so the only per-call addition to the
// synchronous 5 is the stub's completion hook. Measured 6.
func TestEchoAsyncAllocs(t *testing.T) {
	w := newAllocWorld(t, maqs.Options{}, "", nil)
	args := encodeOctets(w.client.ORB.Order(), []byte("alloc gate payload"))
	ctx := context.Background()
	gateAllocs(t, "async echo round trip", 7, func() {
		fut, err := w.stub.CallAsync(ctx, "echo", args)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fut.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCompressedCallAllocs gates a 4 KiB echo bound to Compression: the
// flate writer and reader are reused per module, so the round trip costs
// a few frame buffers, not a new 650 KB writer per direction. Measured 12
// allocations and ~21 KiB per call (the commit before codec reuse: 109 and
// 1.7 MB); the byte ceiling is 64 KiB.
func TestCompressedCallAllocs(t *testing.T) {
	w := newAllocWorld(t, maqs.Options{}, compression.ModuleName, compression.NewImpl(0))
	doc := bytes.Repeat([]byte("quality of service for everyone "), 128)
	call := w.echo(t, encodeOctets(w.client.ORB.Order(), doc))
	gateAllocs(t, "compressed 4 KiB round trip", 13, call)

	const rounds, ceiling = 200, 64 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		call()
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / rounds
	if perOp > ceiling {
		t.Fatalf("compressed 4 KiB round trip allocates %d B/op, ceiling is %d", perOp, ceiling)
	}
	t.Logf("compressed 4 KiB round trip: %d B/op (ceiling %d)", perOp, ceiling)
}

// TestEncryptedCallAllocs gates a 1 KiB echo bound to Encryption: cipher
// and HMAC state live with the session, so a call pays for its frames and
// CTR streams only. Measured 14 (the commit before state reuse: 105).
func TestEncryptedCallAllocs(t *testing.T) {
	w := newAllocWorld(t, maqs.Options{}, encryption.ModuleName, encryption.NewImpl(0))
	args := encodeOctets(w.client.ORB.Order(), bytes.Repeat([]byte{0x5A}, 1<<10))
	gateAllocs(t, "encrypted 1 KiB round trip", 15, w.echo(t, args))
}
