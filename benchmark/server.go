package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"maqs"
	"maqs/internal/characteristics/compression"
	"maqs/internal/characteristics/encryption"
	"maqs/internal/orb"
	"maqs/internal/qos"
	"maqs/internal/qos/transport"
)

// serveEnv carries the child's configuration. The server side of every
// workload is this same binary re-executed with serveEnv set, so client
// and server CPU and allocations are attributed separately and no state
// leaks between workloads. (An environment variable rather than a flag
// lets the test binary re-execute itself the same way.)
const serveEnv = "MAQS_BENCH_SERVE"

const (
	opEcho = "echo"
	// Control operations, served on a separate object and connection.
	opStats = "stats"
	opCPU   = "cpu"
	opArm   = "arm"
	opSpans = "spans"

	echoTypeID    = "IDL:bench/Echo:1.0"
	controlTypeID = "IDL:bench/Control:1.0"
)

// serveConfig is what the parent asks of a server child.
type serveConfig struct {
	Workload string `json:"workload"`
	// Traced installs the span-recording wrappers.
	Traced bool `json:"traced"`
	// Observed sets Options.Observability (tail sampling 10 %).
	Observed     bool `json:"observed"`
	SpanCapacity int  `json:"span_capacity"`
}

// serverReport is the reply of the control object's stats operation.
type serverReport struct {
	Proc procStats `json:"proc"`
	// Bindings is the number of live bindings of the workload's
	// characteristic on the echo object's skeleton.
	Bindings int `json:"bindings"`
	// SpansDropped counts spans that did not fit the recorder.
	SpansDropped int64 `json:"spans_dropped"`
}

// serveMain runs a server child until its standard input is closed.
func serveMain(raw string) int {
	var cfg serveConfig
	if err := json.Unmarshal([]byte(raw), &cfg); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark server: bad config:", err)
		return 2
	}
	w, err := findWorkload(cfg.Workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark server:", err)
		return 2
	}
	opts := maqs.Options{}
	var st *serverTransport // nil unless traced
	var probe func(transport.Factory) transport.Factory
	if cfg.Traced {
		st = &serverTransport{rec: newRecorder(cfg.SpanCapacity)}
		opts.Transport = st
		probe = func(f transport.Factory) transport.Factory { return probeFactory(f, st.rec, nil, st) }
	}
	if cfg.Observed {
		opts.Observability = newObservability()
	}
	sys, err := newSystem(opts, w, probe)
	if err == nil {
		err = sys.Listen("127.0.0.1:0")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark server:", err)
		return 1
	}
	ref, skel, err := activateEcho(sys, w, st)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark server:", err)
		return 1
	}
	ctl, err := sys.Activate("control", controlTypeID, &controlServant{w: w, skel: skel, st: st})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark server:", err)
		return 1
	}
	fmt.Println(ref.String())
	fmt.Println(ctl.String())
	// The parent closes our standard input to end the workload; the same
	// happens if the parent dies, so a child never outlives it.
	_, _ = io.Copy(io.Discard, os.Stdin)
	sys.Shutdown()
	return 0
}

// newObservability is the bundle of the instrumentation-price mini-run.
func newObservability() *maqs.Observability {
	return maqs.NewObservabilityWithConfig(maqs.ObservabilityConfig{
		TailSampling: &maqs.TailSamplingConfig{HealthyKeepFraction: 0.1},
	})
}

// moduleFactories maps the module names workloads use to their factories.
var moduleFactories = map[string]transport.Factory{
	compression.ModuleName: compression.NewModule,
	encryption.ModuleName:  encryption.NewModule,
}

// newSystem builds one peer of a workload: a System with the given options
// plus only the module the workload names, loaded. When tracing, probe
// wraps that module's stock factory.
func newSystem(opts maqs.Options, w workload, probe func(transport.Factory) transport.Factory) (*maqs.System, error) {
	probed := w.Module != "" && probe != nil
	opts.SkipStandardModules = probed
	sys, err := maqs.NewSystem(opts)
	if err != nil {
		return nil, err
	}
	if probed {
		if err := sys.Transport.RegisterFactory(w.Module, probe(moduleFactories[w.Module])); err != nil {
			return nil, err
		}
	}
	if w.Module != "" {
		if err := sys.LoadModule(w.Module, nil); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// nullImpl is the server half of the Null characteristic: qos.BaseImpl
// with one numeric parameter so negotiate_churn has a value to resolve.
func nullImpl() qos.Impl {
	return &qos.BaseImpl{
		Desc: &qos.Characteristic{Name: nullName},
		Capability: &qos.Offer{Characteristic: nullName, Params: []qos.ParamOffer{
			{Name: "x", Kind: qos.KindNumber, Min: 0, Max: 1000, Default: qos.Number(0)},
		}},
	}
}

// echoServant returns its octet-sequence argument.
type echoServant struct{}

func (echoServant) Invoke(req *orb.ServerRequest) error {
	p, err := req.In().ReadOctets()
	if err != nil {
		return err
	}
	req.Out.WriteOctets(p)
	return nil
}

// activateEcho registers the workload's echo object: the echo servant
// behind a ServerSkeleton offering Null and, when the workload names
// another characteristic, that one too, so plain and bound workloads call
// the same object and differ only in the binding. With st set, the
// paper's server-side ports are wrapped with timing probes.
func activateEcho(sys *maqs.System, w workload, st *serverTransport) (*maqs.IOR, *maqs.ServerSkeleton, error) {
	impls := []qos.Impl{nullImpl()}
	switch w.Characteristic {
	case maqs.Encryption:
		impls = append(impls, encryption.NewImpl(0))
	case maqs.Compression:
		impls = append(impls, compression.NewImpl(0))
	}
	var inner orb.Servant = echoServant{}
	if st != nil {
		inner = &probeServant{inner: inner, kind: kindServant, st: st}
	}
	skel := maqs.NewServerSkeleton(inner)
	var info maqs.QoSInfo
	for _, impl := range impls {
		info.Characteristics = append(info.Characteristics, impl.Characteristic().Name)
		if st != nil {
			impl = &probeImpl{Impl: impl, st: st}
		}
		if err := skel.AddQoS(impl); err != nil {
			return nil, nil, err
		}
	}
	if w.Module != "" {
		info.Modules = []string{w.Module}
	}
	var servant orb.Servant = skel
	if st != nil {
		servant = &probeServant{inner: skel, kind: kindSkeleton, st: st}
	}
	ref, err := sys.ActivateQoS("echo", echoTypeID, servant, info)
	return ref, skel, err
}

// registerNull registers the client half of Null: a pass-through mediator,
// so a bound call runs the stub-to-mediator delegation the paper
// describes. With p set the mediator is probed.
func registerNull(sys *maqs.System, p *callerProbe) error {
	return sys.Registry.Register(&qos.Characteristic{Name: nullName}, func(*qos.Stub, *qos.Binding) (qos.Mediator, error) {
		var m qos.Mediator = &qos.BaseMediator{Char: nullName}
		if p != nil {
			m = &probeMediator{inner: m, char: nullName, p: p}
		}
		return m, nil
	})
}

// spanChunk is how many spans one spans reply carries.
const spanChunk = 100_000

// spanWireSize is the encoded size of one span.
const spanWireSize = 8 + 8 + 4 + 1 + 1

// controlServant is the benchmark-only control object through which the
// parent reads the child's counters and spans.
type controlServant struct {
	w    workload
	skel *maqs.ServerSkeleton
	st   *serverTransport // nil unless traced
}

func (c *controlServant) Invoke(req *orb.ServerRequest) error {
	switch req.Operation {
	case opStats:
		rep := serverReport{Proc: readProcStats(), Bindings: c.skel.BindingCount(c.characteristic())}
		if c.st != nil {
			rep.SpansDropped = c.st.rec.dropped.Load()
		}
		data, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		req.Out.WriteOctets(data)
		return nil
	case opCPU:
		req.Out.WriteLongLong(cpuTimeNs())
		return nil
	case opArm:
		on, err := req.In().ReadBool()
		if err != nil {
			return err
		}
		if c.st != nil {
			c.st.rec.armed.Store(on)
		}
		return nil
	case opSpans:
		// in: offset; out: total span count, a chunk of encoded spans from
		// offset, and the remote address of each accepted connection.
		offset, err := req.In().ReadULong()
		if err != nil {
			return err
		}
		var spans []span
		var peers []string
		if c.st != nil {
			spans, peers = c.st.rec.recorded(), c.st.peerTable()
		}
		req.Out.WriteULong(uint32(len(spans)))
		chunk := spans[min(int(offset), len(spans)):]
		if len(chunk) > spanChunk {
			chunk = chunk[:spanChunk]
		}
		req.Out.WriteOctets(encodeSpans(chunk))
		req.Out.WriteULong(uint32(len(peers)))
		for _, p := range peers {
			req.Out.WriteString(p)
		}
		return nil
	}
	return orb.NewSystemException(orb.ExcBadOperation, 1, "control object has no operation %q", req.Operation)
}

func (c *controlServant) characteristic() string {
	if c.w.Characteristic == "" {
		return nullName
	}
	return c.w.Characteristic
}

func encodeSpans(spans []span) []byte {
	out := make([]byte, 0, len(spans)*spanWireSize)
	for _, s := range spans {
		out = binary.BigEndian.AppendUint64(out, uint64(s.Start))
		out = binary.BigEndian.AppendUint64(out, uint64(s.End))
		out = binary.BigEndian.AppendUint32(out, s.Seq)
		out = append(out, s.Who, byte(s.Kind))
	}
	return out
}

func decodeSpans(data []byte) ([]span, error) {
	if len(data)%spanWireSize != 0 {
		return nil, fmt.Errorf("span chunk of %d bytes is not a multiple of %d", len(data), spanWireSize)
	}
	spans := make([]span, 0, len(data)/spanWireSize)
	for ; len(data) > 0; data = data[spanWireSize:] {
		kind := spanKind(data[21])
		if kind >= numKinds {
			return nil, fmt.Errorf("span chunk names unknown kind %d", kind)
		}
		spans = append(spans, span{
			Start: int64(binary.BigEndian.Uint64(data[0:8])),
			End:   int64(binary.BigEndian.Uint64(data[8:16])),
			Seq:   binary.BigEndian.Uint32(data[16:20]),
			Who:   data[20],
			Kind:  kind,
		})
	}
	return spans, nil
}
