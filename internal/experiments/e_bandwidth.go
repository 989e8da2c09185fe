package experiments

import (
	"bytes"
	"context"
	"fmt"
	mathrand "math/rand"
	"testing"
	"time"

	"maqs"
	"maqs/internal/characteristics/compression"
	"maqs/internal/characteristics/encryption"
	"maqs/internal/giop"
	"maqs/internal/orb"
	"maqs/internal/qos"
)

// text4K is a compressible 4 KiB document, zeros256K a bulk payload.
var (
	text4K    = bytes.Repeat([]byte("quality of service for everyone "), 128)
	zeros256K = make([]byte, 256<<10)
)

// e5 is compression against bandwidth: the per-call cost of a 4 KiB echo
// over a 2 Mbit/s link with and without it, the flate codec alone, and —
// the shape — a sweep of link bandwidths for compressible and random 16 KiB
// documents that shows where compression stops winning.
var e5 = Experiment{
	ID: "E5", Name: "compression vs bandwidth",
	Title: "16 KiB fetch latency: plain vs compressed across link bandwidths",
	Claim: "§6: 'compression for channels with small bandwidth' — it wins below a crossover bandwidth and is moot above it",
	Cases: []Case{
		{"E5Compression/plain/4KiB@2Mbit", func(tb testing.TB) (func(), int64) { return e5Echo(tb, false) }},
		{"E5Compression/compressed/4KiB@2Mbit", func(tb testing.TB) (func(), int64) { return e5Echo(tb, true) }},
		{"ModuleWrap", moduleWrap},
	},
	Shape: e5Sweep,
	Notes: []string{"compressible payloads gain most at low bandwidth; random payloads never gain (the module stores them) — the crossover is where speedup approaches 1x"},
}

// thinLink is a Compression-capable pair on a shaped link, with request
// timeouts a slow link cannot trip.
func thinLink(link maqs.Link, bound bool) Config {
	cfg := Compressed()
	cfg.Link = link
	cfg.Options.RequestTimeout = time.Minute
	if !bound {
		cfg.Proposal = nil
	}
	return cfg
}

func e5Echo(tb testing.TB, compressed bool) (func(), int64) {
	w := NewWorld(tb, thinLink(maqs.Link{BitsPerSec: 2_000_000}, compressed))
	return w.Echo(tb, text4K), int64(len(text4K))
}

// e5Sweep fetches one document per bandwidth and payload kind through an
// unbound and a Compression-bound stub of the same client, after one fetch
// each to open the connection.
func e5Sweep(tb testing.TB) ([]string, [][]string) {
	const size = 16 << 10
	payloads := []struct {
		name string
		doc  []byte
	}{{"text (compressible)", bytes.Repeat(text4K, size/len(text4K))}, {"random", make([]byte, size)}}
	mathrand.New(mathrand.NewSource(1)).Read(payloads[1].doc) // incompressible, and the same every run
	fetch := func(stub *maqs.Stub) time.Duration {
		start := time.Now()
		d, err := stub.Call(context.Background(), "fetch", nil)
		if err == nil {
			_, err = d.ReadOctets()
		}
		if err != nil {
			tb.Fatal(err)
		}
		return time.Since(start)
	}
	var rows [][]string
	for _, bw := range []int64{128_000, 512_000, 2_000_000, 8_000_000, 64_000_000} {
		for _, payload := range payloads {
			cfg := thinLink(maqs.Link{BitsPerSec: bw, Latency: 2 * time.Millisecond}, true)
			cfg.Servant = func(int) maqs.Servant { return docServant{payload.doc} }
			w := NewWorld(tb, cfg)
			unbound := w.Client.Stub(w.Ref)
			fetch(unbound)
			fetch(w.Stub)
			plain, zipped := fetch(unbound), fetch(w.Stub)
			rows = append(rows, []string{
				fmt.Sprintf("%d kbit/s", bw/1000), payload.name,
				fmtDur(plain), fmtDur(zipped), fmt.Sprintf("%.2fx", float64(plain)/float64(zipped)),
			})
		}
	}
	return []string{"bandwidth", "payload", "plain", "compressed", "speedup"}, rows
}

// e6 measures the cost of AES-256-GCM payload protection against
// plaintext, by payload size, on a fast link, and the secure module alone.
var e6 = Experiment{
	ID: "E6", Name: "encryption overhead",
	Title: "echo round trip: plaintext vs AES-256-GCM, by payload size",
	Claim: "§6: 'privacy through encryption' as a negotiable characteristic; it costs one AEAD pass per frame, so its cost grows with payload size",
	Cases: append(e6Cases(), Case{"ModuleSeal", moduleSeal}),
	Notes: []string{"small payloads pay a fixed per-frame cost (nonce, tag, session lookup); large payloads approach the AES-GCM streaming rate — linear in payload size, as expected"},
}

func e6Cases() []Case {
	var cases []Case
	for _, size := range []int{64, 1 << 10, 8 << 10, 64 << 10} {
		label := fmt.Sprintf("%dB", size)
		if size >= 1<<10 {
			label = fmt.Sprintf("%dKiB", size>>10)
		}
		for _, mode := range []string{"plain", "secure"} {
			cases = append(cases, Case{fmt.Sprintf("E6Encryption/%s/%s", mode, label), func(tb testing.TB) (func(), int64) {
				cfg := Encrypted()
				if mode == "plain" {
					cfg.Proposal = nil
				}
				return NewWorld(tb, cfg).Echo(tb, bytes.Repeat([]byte{0x5A}, size)), int64(size)
			}})
		}
	}
	return cases
}

// serverFilterRoundTrip drives one module's server filter with no ORB and
// no network around it: Outbound transforms body into a frame, Inbound
// turns that frame back. What remains is the codec cost alone — the rung
// E5 adds on top of the plain echo. (A server filter cannot open its own
// secure frame, so E6's rung runs through the client module: moduleSeal.)
func serverFilterRoundTrip(tb testing.TB, f orb.IncomingFilter, tag qos.QoSTag, body []byte) (func(), int64) {
	req := &orb.ServerRequest{
		Operation: "echo",
		Contexts:  giop.ServiceContextList{}.With(giop.SCQoS, tag.Encode()),
	}
	return func() {
		frame, err := f.Outbound(req, giop.ReplyNoException, body)
		if err != nil {
			tb.Fatal(err)
		}
		req.Args = frame
		if err := f.Inbound(req); err != nil {
			tb.Fatal(err)
		}
		if len(req.Args) != len(body) {
			tb.Fatalf("round trip returned %d bytes, want %d", len(req.Args), len(body))
		}
	}, int64(len(body))
}

// moduleWrap is the flate module's wrap + unwrap of a 4 KiB text payload.
func moduleWrap(tb testing.TB) (func(), int64) {
	mod, err := compression.NewModule(nil, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return serverFilterRoundTrip(tb, mod.ServerFilter(),
		qos.QoSTag{Characteristic: maqs.Compression, BindingID: "b", Module: compression.ModuleName}, text4K)
}

// moduleSeal is the secure module alone on a 1 KiB payload under one
// session: the client module's Send seals the request, and its next runs
// the server filter, which opens it and seals the reply for Send to open —
// the four AEAD passes of an encrypted echo without the ORB and network
// around them. The session is the world's: the first Send handshakes.
func moduleSeal(tb testing.TB) (func(), int64) {
	w := NewWorld(tb, Encrypted())
	client, _ := w.Client.Transport.Module(encryption.ModuleName)
	server, _ := w.Servers[0].Transport.Module(encryption.ModuleName)
	b := w.Stub.Binding()
	tag := qos.QoSTag{Characteristic: b.Characteristic, BindingID: b.ID, Module: b.Module}
	inv := &orb.Invocation{Target: w.Ref, Operation: "echo", Args: bytes.Repeat([]byte{0x5A}, 1<<10),
		Contexts: giop.ServiceContextList{}.With(giop.SCQoS, tag.Encode())}
	f := server.ServerFilter()
	req := &orb.ServerRequest{Operation: inv.Operation, Contexts: inv.Contexts}
	reply := &orb.Outcome{Status: giop.ReplyNoException}
	next := func(_ context.Context, sealed *orb.Invocation) (*orb.Outcome, error) {
		req.Args = sealed.Args
		if err := f.Inbound(req); err != nil {
			return nil, err
		}
		var err error
		reply.Data, err = f.Outbound(req, giop.ReplyNoException, req.Args)
		return reply, err
	}
	ctx := context.Background()
	return func() {
		out, err := client.Send(ctx, inv, next)
		if err != nil {
			tb.Fatal(err)
		}
		if len(out.Data) != len(inv.Args) {
			tb.Fatalf("round trip returned %d bytes, want %d", len(out.Data), len(inv.Args))
		}
	}, int64(len(inv.Args))
}

// ablationChain compares a single transport module against a two-member
// chain carrying the same payload (the composition overhead).
func ablationChain() []Case {
	zipcrypt := func(sys *maqs.System) error {
		return sys.Transport.RegisterChain("zipcrypt", compression.ModuleName, encryption.ModuleName)
	}
	var cases []Case
	for _, c := range []struct {
		name, module string
		register     func(*maqs.System) error
	}{{"flateOnly", compression.ModuleName, nil}, {"flateSecureChain", "zipcrypt", zipcrypt}} {
		cases = append(cases, Case{"AblationChain/" + c.name, func(tb testing.TB) (func(), int64) {
			w := NewWorld(tb, Config{Impl: passThrough("Pipe", c.module), Proposal: propose("Pipe"),
				Module: c.module, Register: c.register})
			return w.Echo(tb, bytes.Repeat([]byte("compressible payload body "), 64)), 0
		}})
	}
	return cases
}

// ablationFragmentation compares unfragmented and fragmented delivery of a
// 256 KiB payload over the in-memory link.
func ablationFragmentation() []Case {
	var cases []Case
	for _, maxFragment := range []int{0, 16 << 10, 64 << 10} {
		name := "off"
		if maxFragment > 0 {
			name = fmt.Sprintf("%dKiB", maxFragment>>10)
		}
		cases = append(cases, Case{"AblationFragmentation/" + name, func(tb testing.TB) (func(), int64) {
			w := NewWorld(tb, Config{BareORB: &orb.Options{MaxFragment: maxFragment}})
			args, ctx := w.Octets(zeros256K), context.Background()
			return func() { // the ORB's own invocation: no stub on a bare ORB's path
				out, err := w.Client.ORB.Invoke(ctx, &maqs.Invocation{Target: w.Ref, Operation: "echo", Args: args, ResponseExpected: true})
				if err == nil {
					err = out.Err()
				}
				if err != nil {
					tb.Fatal(err)
				}
			}, int64(len(zeros256K))
		}})
	}
	return cases
}

// ablations are the costs of optional design features: not claims of the
// paper, so no experiment's table prints them, but benchmarks like the rest.
func ablations() []Case {
	return append(append(ablationVoting(), ablationChain()...), ablationFragmentation()...)
}
