package maqs_test

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"

	"maqs"
	"maqs/internal/characteristics/loadbalance"
	"maqs/internal/experiments"
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
// and only a real net.Conn shows what address formatting costs. Of a
// negotiate+release cycle: 37 until its encoders were pooled, contracts
// became name-sorted terms and decoding took names from the schema, 20 since.
//
// The worlds are internal/experiments' — the builder and configurations
// the benchmarks and cmd/maqs-bench measure — so a gate and the BENCH row
// of the same name count the same path.

var gatePayload = []byte("alloc gate payload")

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

// gateEcho gates one echo of gatePayload through the world cfg describes.
func gateEcho(t *testing.T, what string, budget float64, cfg experiments.Config) {
	t.Helper()
	gateAllocs(t, what, budget, experiments.NewWorld(t, cfg).Echo(t, gatePayload))
}

// TestEchoCallAllocs gates the plain synchronous round trip: measured 5 —
// the stub's Invocation, the Outcome and its data, and the in-memory
// network's two segment copies. The server allocates nothing.
func TestEchoCallAllocs(t *testing.T) {
	gateEcho(t, "echo round trip", 6, experiments.Config{})
}

// TestEchoCallAllocsTCP is the same gate over loopback TCP: measured 3.
// The in-memory gates cannot see what only a real net.Conn pays — four
// address-string allocations per call (Profile.Addr on the way out,
// RemoteAddr().String() on the way in) sat under a "measured + 1" gate
// until the repository benchmark, which runs on sockets, counted them.
func TestEchoCallAllocsTCP(t *testing.T) {
	gateEcho(t, "echo round trip over TCP", 4, experiments.Config{TCP: true})
}

// gateSeam gates the paper's seam: the same echo bound to a characteristic
// that does nothing, behind a mediator that does nothing — tagged request,
// mediator bracket, binding lookup, routing, prolog and epilog.
func gateSeam(t *testing.T, what string, budget float64, tcp bool, opts maqs.Options) {
	t.Helper()
	cfg := experiments.NullBound()
	cfg.TCP, cfg.Options = tcp, opts
	w := experiments.NewWorld(t, cfg)
	w.Stub.SetMediator(&qos.BaseMediator{Char: cfg.Proposal.Characteristic})
	gateAllocs(t, what, budget, w.Echo(t, gatePayload))
}

// TestBoundEchoAllocs: the seam must cost what the plain call costs.
// Measured 5, so the budget is TestEchoCallAllocs' own: what a bound
// request repeats lives with the binding (its encoded tag and context
// list), with the pooled dispatch job (context array and payloads) and with
// the connection (the decoded tag), not on the heap per call.
func TestBoundEchoAllocs(t *testing.T) {
	gateSeam(t, "bound echo round trip", 6, false, maqs.Options{})
}

// TestBoundEchoAllocsTCP is the seam gate over loopback TCP: measured 3,
// TestEchoCallAllocsTCP's figure.
func TestBoundEchoAllocsTCP(t *testing.T) {
	gateSeam(t, "bound echo round trip over TCP", 4, true, maqs.Options{})
}

// TestObservedEchoAllocs gates the echo with observability on: one bundle
// shared by client and server, so a call makes the client's call, mediator
// and wire spans, the server's dispatch, prolog, servant and epilog spans,
// their SCTraceReturn summaries, a flight record, an exemplar and the
// metrics. It runs once with TailSampling unset (every trace kept) and once
// at a healthy keep of 0.1.
func TestObservedEchoAllocs(t *testing.T) {
	for _, c := range []struct {
		name         string
		sampling     *maqs.TailSamplingConfig
		plain, bound float64
	}{
		{"every trace kept", nil, 38, 61},
		{"healthy keep 0.1", &maqs.TailSamplingConfig{HealthyKeepFraction: 0.1}, 38, 61},
	} {
		observed := func() maqs.Options {
			return maqs.Options{Observability: maqs.NewObservabilityWithConfig(maqs.ObservabilityConfig{TailSampling: c.sampling})}
		}
		gateEcho(t, "observed echo round trip, "+c.name, c.plain, experiments.Config{Options: observed()})
		gateSeam(t, "observed bound echo round trip, "+c.name, c.bound, false, observed())
	}
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
		gateEcho(t, fmt.Sprintf("replicated round trip, k=%d", c.k), c.budget, experiments.Replicated(c.k))
	}
}

// TestLoadBalanceAllocs gates the balancer: a plain round trip plus the
// routed copy, plus what the characteristic itself exchanges — the worker's
// load report in a reply context (16 bytes and the context list) and its
// decoding (2). Measured 10.
func TestLoadBalanceAllocs(t *testing.T) {
	gateEcho(t, "load-balanced round trip", 11, experiments.Balanced(loadbalance.StrategyRoundRobin))
}

// TestServerDispatchAllocs is the same gate with every QoS class bounded
// through AdmissionPolicy: the request passes its class's admission gate
// (label interning, a held count, a slot) before the handler, and must not
// reintroduce per-request garbage. Measured 5 — the same as an unbounded
// class, because both run the one pooled job on its own goroutine.
func TestServerDispatchAllocs(t *testing.T) {
	bounded := func(string) maqs.ClassPolicy { return maqs.ClassPolicy{Workers: 4, QueueDepth: 64} }
	gateEcho(t, "bounded-dispatch round trip", 6,
		experiments.Config{Options: maqs.Options{AdmissionPolicy: bounded}})
}

// TestEchoAsyncAllocs gates the asynchronous fast path: CallAsync + Wait
// for one echo runs the synchronous call's send and waits on the same
// pooled Future (whose completion signal is made once per Future, not once
// per call) — the dispatch on the calling goroutine, the completion on the
// connection's read loop — so the only per-call addition to the
// synchronous 5 is the stub's completion hook. Measured 6.
func TestEchoAsyncAllocs(t *testing.T) {
	w := experiments.NewWorld(t, experiments.Config{})
	args, ctx := w.Octets(gatePayload), context.Background()
	gateAllocs(t, "async echo round trip", 7, func() {
		fut, err := w.Stub.CallAsync(ctx, "echo", args)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fut.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	})
}

// gateBytes fails when call allocates more than ceiling bytes per call,
// averaged over 200 calls after gateAllocs warmed the path.
func gateBytes(t *testing.T, what string, ceiling uint64, call func()) {
	t.Helper()
	const rounds = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		call()
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / rounds
	if perOp > ceiling {
		t.Fatalf("%s allocates %d B/op, ceiling is %d", what, perOp, ceiling)
	}
	t.Logf("%s: %d B/op (ceiling %d)", what, perOp, ceiling)
}

// TestCompressedCallAllocs gates a 4 KiB echo bound to Compression: the
// flate writer and reader are reused per module, so the round trip costs
// a few frame buffers, not a new 650 KB writer per direction. Measured 12
// allocations and ~21 KiB per call (the commit before codec reuse: 109 and
// 1.7 MB); the byte ceiling is 64 KiB.
func TestCompressedCallAllocs(t *testing.T) {
	doc := bytes.Repeat([]byte("quality of service for everyone "), 128)
	call := experiments.NewWorld(t, experiments.Compressed()).Echo(t, doc)
	gateAllocs(t, "compressed 4 KiB round trip", 13, call)
	gateBytes(t, "compressed 4 KiB round trip", 64<<10, call)
}

// TestEncryptedCallAllocs gates a 1 KiB echo bound to Encryption: the
// AEAD is prepared once per session, so each of the four frames costs one
// AES-GCM pass and one buffer — the seal's frame, the open's plaintext.
// Measured 10 allocations and ~8.6 KB per call; the AES-256-CTR +
// HMAC-SHA256 construction before it made 14 and ~10.7 KB (105 allocations
// while it keyed a cipher and an HMAC per payload). The byte ceiling,
// 10 KiB, sits between the two.
func TestEncryptedCallAllocs(t *testing.T) {
	call := experiments.NewWorld(t, experiments.Encrypted()).Echo(t, make([]byte, 1<<10))
	gateAllocs(t, "encrypted 1 KiB round trip", 11, call)
	gateBytes(t, "encrypted 1 KiB round trip", 10<<10, call)
}

// gateCase gates an internal/experiments case by name: the world and the
// operation its BENCH row and maqs-bench table measure.
func gateCase(t *testing.T, name string, budget float64) {
	t.Helper()
	for _, c := range experiments.Cases() {
		if c.Name == name {
			op, _ := c.Setup(t)
			gateAllocs(t, name, budget, op)
			return
		}
	}
	t.Fatalf("no experiments case %s", name)
}

// TestNegotiateReleaseAllocs gates E8's agreement cycle, negotiate then
// release: two plain round trips (two Invocations, two Outcomes, the
// negotiate reply's data, four in-memory segments) plus the agreement
// itself — the server's Proposal, Binding, Contract, terms and minted ID,
// the client's Binding, Contract, terms, ID and encoded tag (two).
// Measured 20; 37 while encoders were unpooled, span events allocated
// their attributes with tracing off, contracts were maps and names were
// copied off the wire.
func TestNegotiateReleaseAllocs(t *testing.T) {
	gateCase(t, "E8Negotiation/negotiateRelease", 21)
}

// TestRenegotiateAllocs gates E8's renegotiation of a live binding: one
// plain round trip (five), the server's Proposal, Contract, terms and
// fresh Binding, the client's Contract, terms and fresh Binding. Measured
// 12 at every epoch; 24 or 25 while the epoch was formatted for spans that
// do not record (FormatUint allocates from 100 on).
func TestRenegotiateAllocs(t *testing.T) {
	gateCase(t, "E8Negotiation/renegotiate", 13)
}
