package experiments

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"maqs"
	"maqs/internal/cdr"
	"maqs/internal/characteristics/compression"
	"maqs/internal/characteristics/encryption"
	"maqs/internal/characteristics/loadbalance"
	"maqs/internal/characteristics/replication"
	"maqs/internal/netsim"
	"maqs/internal/orb"
	"maqs/internal/qos"
	"maqs/internal/qos/transport"
)

// Config describes one world: a client and the servers of one object. The
// zero Config is a plain echo pair on an in-memory network.
type Config struct {
	// TCP puts the pair on loopback TCP instead of an in-memory network.
	TCP bool
	// Link shapes every in-memory link.
	Link maqs.Link
	// Options configures every system of the world; the builder supplies
	// the transport.
	Options maqs.Options
	// BareORB, when set, builds every system as an ORB with these options
	// and nothing installed on it: the facade carries no GIOP fragmentation
	// option, and a plain echo (all the fragmentation ablation sends) needs
	// no QoS transport.
	BareORB *orb.Options
	// Members is the number of servers the object is deployed on, each
	// with its own servant and Impl; the reference then lists them all as
	// alternate endpoints. 0 is one server without alternates.
	Members int
	// Servant builds member i's servant (default: the echo servant).
	Servant func(member int) maqs.Servant
	// Impl, when set, makes the object QoS-capable: it builds the
	// implementation one member adds to its skeleton, given the endpoints
	// of all members.
	Impl func(endpoints []string) maqs.Impl
	// Module is a transport module every system loads and a QoS-capable
	// reference advertises. Register, when set, runs on every system
	// first: the place for a factory or chain Module names.
	Module   string
	Register func(*maqs.System) error
	// Proposal, when set, is negotiated on Stub.
	Proposal *maqs.Proposal
}

// World is what NewWorld built. It is torn down by the testing.TB's Cleanup.
type World struct {
	Net     *maqs.Network // nil over TCP
	Servers []*maqs.System
	Client  *maqs.System
	Ref     *maqs.IOR
	Stub    *maqs.Stub // on Ref, bound when Config.Proposal is set
}

// NewWorld is the one builder of experiment worlds: the benchmarks, the
// allocation gates of the root package and the run-once experiments all
// deploy through it.
func NewWorld(tb testing.TB, cfg Config) *World {
	tb.Helper()
	w := &World{}
	hosts, endpoints := []string{"server"}, []string{"server:1"}
	if cfg.TCP {
		endpoints[0] = "127.0.0.1:0"
	} else {
		w.Net = maqs.NewNetwork()
		w.Net.SetDefaultLink(cfg.Link)
	}
	if cfg.Members > 0 {
		hosts, endpoints = make([]string, cfg.Members), make([]string, cfg.Members)
		for i := range hosts {
			hosts[i] = fmt.Sprintf("member%d", i)
			endpoints[i] = hosts[i] + ":1"
		}
	}
	system := func(host string) *maqs.System {
		var via netsim.Transport // nil: TCP
		if w.Net != nil {
			via = w.Net.Host(host)
		}
		var sys *maqs.System
		if cfg.BareORB != nil {
			opts := *cfg.BareORB
			opts.Transport = via
			sys = &maqs.System{ORB: orb.New(opts), Registry: qos.NewRegistry()}
		} else {
			opts := cfg.Options
			opts.Transport = via
			var err error
			if sys, err = maqs.NewSystem(opts); err != nil {
				tb.Fatal(err)
			}
		}
		tb.Cleanup(sys.Shutdown)
		if cfg.Register != nil {
			if err := cfg.Register(sys); err != nil {
				tb.Fatal(err)
			}
		}
		if cfg.Module != "" {
			if err := sys.LoadModule(cfg.Module, nil); err != nil {
				tb.Fatal(err)
			}
		}
		return sys
	}

	const key, typeID = "echo", "IDL:bench/Echo:1.0"
	info := maqs.QoSInfo{}
	if cfg.Module != "" {
		info.Modules = []string{cfg.Module}
	}
	for i, ep := range endpoints {
		server := system(hosts[i])
		if err := server.Listen(ep); err != nil {
			tb.Fatal(err)
		}
		var servant maqs.Servant = echoServant{}
		if cfg.Servant != nil {
			servant = cfg.Servant(i)
		}
		var ref *maqs.IOR
		var err error
		if cfg.Impl == nil {
			ref, err = server.Activate(key, typeID, servant)
		} else {
			impl := cfg.Impl(endpoints)
			info.Characteristics = []string{impl.Characteristic().Name}
			skel := maqs.NewServerSkeleton(servant)
			if err := skel.AddQoS(impl); err != nil {
				tb.Fatal(err)
			}
			ref, err = server.ActivateQoS(key, typeID, skel, info)
		}
		if err != nil {
			tb.Fatal(err)
		}
		if i == 0 {
			w.Ref = ref
			if cfg.Members > 0 {
				w.Ref = ref.Clone()
				w.Ref.SetAlternateEndpoints(endpoints)
			}
		}
		w.Servers = append(w.Servers, server)
	}

	w.Client = system("client")
	for _, name := range info.Characteristics {
		if _, known := w.Client.Registry.Lookup(name); !known {
			// A characteristic of this package: no mediator of its own.
			if err := w.Client.Registry.Register(&qos.Characteristic{Name: name}, nil); err != nil {
				tb.Fatal(err)
			}
		}
	}
	w.Stub = w.Client.Stub(w.Ref)
	if cfg.Proposal != nil {
		if _, err := w.Stub.Negotiate(context.Background(), cfg.Proposal); err != nil {
			tb.Fatal(err)
		}
	}
	return w
}

// Octets is payload marshalled as the echo operation's argument.
func (w *World) Octets(payload []byte) []byte {
	e := cdr.NewEncoder(w.Client.ORB.Order())
	e.WriteOctets(payload)
	return e.Bytes()
}

// Echo returns the operation most cases measure: one synchronous echo of
// payload through Stub.
func (w *World) Echo(tb testing.TB, payload []byte) func() {
	return call(tb, w.Stub, "echo", w.Octets(payload))
}

func call(tb testing.TB, stub *maqs.Stub, op string, args []byte) func() {
	ctx := context.Background()
	return func() {
		if _, err := stub.Call(ctx, op, args); err != nil {
			tb.Fatal(err)
		}
	}
}

func propose(characteristic string, params ...maqs.ParamProposal) *maqs.Proposal {
	return &maqs.Proposal{Characteristic: characteristic, Params: params}
}

// --- configurations the cases and the allocation gates share ---

// NullBound is the paper's seam and nothing else: an echo pair bound to a
// characteristic that does nothing, so a call is tagged, looked up, routed
// and bracketed by prolog and epilog. The stub has no mediator; SetMediator
// a qos.BaseMediator to run that bracket too.
func NullBound() Config {
	return Config{Impl: passThrough("Null", ""), Proposal: propose("Null")}
}

// Compressed is an echo pair bound to Compression through the flate module.
func Compressed() Config {
	return Config{Module: compression.ModuleName, Proposal: propose(maqs.Compression),
		Impl: func([]string) maqs.Impl { return compression.NewImpl(0) }}
}

// Encrypted is an echo pair bound to Encryption through the secure module.
func Encrypted() Config {
	return Config{Module: encryption.ModuleName, Proposal: propose(maqs.Encryption),
		Impl: func([]string) maqs.Impl { return encryption.NewImpl(0) }}
}

// Replicated is an echo object on k active replicas, bound to Availability.
func Replicated(k int, params ...maqs.ParamProposal) Config {
	params = append(params, maqs.ParamProposal{Name: replication.ParamReplicas, Desired: maqs.Number(float64(k))})
	return Config{Members: k, Proposal: propose(maqs.Availability, params...),
		Impl: func(endpoints []string) maqs.Impl { return replication.NewImpl(8, endpoints, nil) }}
}

// Balanced is an echo object on four workers, bound to LoadBalancing.
func Balanced(strategy string, params ...maqs.ParamProposal) Config {
	params = append(params, maqs.ParamProposal{Name: loadbalance.ParamStrategy, Desired: maqs.Text(strategy)})
	return Config{Members: 4, Proposal: propose(maqs.LoadBalancing, params...),
		Impl: func(endpoints []string) maqs.Impl { return loadbalance.NewImpl(0, endpoints) }}
}

// passThroughImpl admits every binding and does nothing per request; module,
// when set, is assigned to the bindings it admits.
type passThroughImpl struct {
	qos.BaseImpl
	module string
}

func passThrough(name, module string) func([]string) maqs.Impl {
	return func([]string) maqs.Impl {
		return &passThroughImpl{module: module, BaseImpl: qos.BaseImpl{
			Desc: &qos.Characteristic{Name: name},
			Capability: &qos.Offer{Characteristic: name, Params: []qos.ParamOffer{
				{Name: "x", Kind: qos.KindNumber, Min: 0, Max: 1, Default: qos.Number(0)}}},
		}}
	}
}

func (i *passThroughImpl) BindingUp(b *qos.Binding) error {
	b.Module = i.module
	return nil
}

// --- servants ---

// echoServant mirrors its octet payload, whatever the operation is called.
type echoServant struct{}

func (echoServant) Invoke(req *orb.ServerRequest) error {
	p, err := req.In().ReadOctets()
	if err != nil {
		return err
	}
	req.Out.WriteOctets(p)
	return nil
}

// docServant serves a fixed document.
type docServant struct{ doc []byte }

func (s docServant) Invoke(req *orb.ServerRequest) error {
	req.Out.WriteOctets(s.doc)
	return nil
}

// clockServant serves the time of its last update, so a reader can tell
// how stale the value it got is, and counts the reads that reached it.
type clockServant struct{ stamp, reads atomic.Int64 }

func (s *clockServant) update() { s.stamp.Store(time.Now().UnixNano()) }

func (s *clockServant) Invoke(req *orb.ServerRequest) error {
	s.reads.Add(1)
	req.Out.WriteLongLong(s.stamp.Load())
	return nil
}

// burnServant takes delay per request and counts what it served: a worker
// of a given speed.
type burnServant struct {
	delay time.Duration
	seen  atomic.Int64
}

func (s *burnServant) Invoke(req *orb.ServerRequest) error {
	s.seen.Add(1)
	time.Sleep(s.delay)
	req.Out.WriteBool(true)
	return nil
}

// --- the pass-through transport module ---

// nopModule forwards every request untouched and answers "ping" on its
// dynamic interface: the module branches of Fig. 3 without a codec's cost.
type nopModule struct{}

func (nopModule) Name() string { return "nop" }
func (nopModule) Send(ctx context.Context, inv *orb.Invocation, next transport.Next) (*orb.Outcome, error) {
	return next(ctx, inv)
}
func (nopModule) ServerFilter() orb.IncomingFilter { return nil }
func (nopModule) Dynamic() *orb.DynamicServant {
	return &orb.DynamicServant{Ops: map[string]orb.DynamicOp{
		"ping": {Result: cdr.TCVoid, Handler: func([]cdr.Any) (cdr.Any, error) { return cdr.Any{}, nil }},
	}}
}
func (nopModule) Close() error { return nil }

func registerNop(sys *maqs.System) error {
	return sys.Transport.RegisterFactory("nop", func(*transport.Transport, map[string]string) (transport.Module, error) {
		return nopModule{}, nil
	})
}
