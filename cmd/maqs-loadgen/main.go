// Command maqs-loadgen drives an open-loop, coordinated-omission-correct
// load run against a maqs server and reports per-QoS-class latency
// percentiles, throughput and error/retry counts.
//
// Usage:
//
//	maqs-loadgen -self -scenario default -o BENCH_6.json
//	maqs-loadgen -ior <stringified-ior> -scenario scenarios.json
//
// Modes:
//
//	-self        start an in-process echo/document server on a TCP
//	             loopback port (the cmd/maqs-server demo servant with the
//	             Compression/Encryption/Actuality characteristics) and
//	             drive it — the one-command benchmark.
//	-ior REF     drive an external server (a stringified IOR, or @file to
//	             read it from a file — as printed by cmd/maqs-server).
//
// The scenario set is a preset name ("smoke", "default") or a JSON file
// (see docs/LOADGEN.md for the schema). Requests follow each scenario's
// intended arrival schedule regardless of server progress, and latency
// is measured from the intended timestamps, so percentiles include the
// queueing delay a stalled server inflicts — no coordinated omission.
//
// With -debug, the observability HTTP surface (/metrics, /trace,
// /flight, ...) is served with the live run status mounted on /loadgen.
// With -o, the final report is written in the BENCH_*.json trajectory
// format shared with cmd/benchjson.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"maqs"
	"maqs/internal/characteristics/actuality"
	"maqs/internal/characteristics/compression"
	"maqs/internal/characteristics/encryption"
	"maqs/internal/ior"
	"maqs/internal/loadgen"
	"maqs/internal/netsim"
	"maqs/internal/obs"
	"maqs/internal/orb"
	"maqs/internal/qos"
)

// selfServant mirrors the cmd/maqs-server demo servant: echo plus a
// small document store, enough surface for every scenario operation.
type selfServant struct {
	mu  sync.Mutex
	doc []byte
}

func (s *selfServant) Invoke(req *maqs.ServerRequest) error {
	switch req.Operation {
	case "echo":
		p, err := req.In().ReadOctets()
		if err != nil {
			return err
		}
		req.Out.WriteOctets(p)
		return nil
	case "get_document":
		s.mu.Lock()
		defer s.mu.Unlock()
		req.Out.WriteOctets(s.doc)
		return nil
	case "put_document":
		p, err := req.In().ReadOctets()
		if err != nil {
			return err
		}
		s.mu.Lock()
		s.doc = append(s.doc[:0], p...)
		s.mu.Unlock()
		return nil
	case "get_time":
		req.Out.WriteLongLong(time.Now().UnixNano())
		return nil
	default:
		return orb.NewSystemException(orb.ExcBadOperation, 1, "no operation %q", req.Operation)
	}
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "maqs-loadgen: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	self := flag.Bool("self", false, "start an in-process target server on a loopback port")
	iorFlag := flag.String("ior", "", "target object reference (stringified IOR, or @file)")
	scenario := flag.String("scenario", "default", `scenario set: preset name ("smoke", "default") or a JSON file path`)
	seed := flag.Uint64("seed", 1, "PRNG seed: same seed, same schedule and payload draws")
	conns := flag.Int("conns", 4, "connections per endpoint in each class's stripe")
	debug := flag.String("debug", "", "HTTP debug address serving /metrics, /trace, /flight and the live /loadgen status (empty: disabled)")
	out := flag.String("o", "", "write the final report as BENCH-format JSON to this file (empty: stdout summary only)")
	report := flag.Duration("report", 2*time.Second, "interval between live progress summaries")
	workers := flag.Int("dispatch-workers", 4*runtime.GOMAXPROCS(0), "self server: base admission policy, requests per QoS class in the handler at once (0: unbounded unless a contract says otherwise)")
	queueDepth := flag.Int("queue-depth", 512, "self server: base admission policy, requests per class waiting at the gate before shedding")
	shedDeadline := flag.Duration("shed-deadline", 0, "self server: base admission policy, shed requests that waited at the gate longer than this (0: queue-full shedding only)")
	statusSnap := flag.String("status-snapshot", "", "write the final live-status JSON (the /loadgen view) to this file")
	tailSample := flag.Float64("tail-sample", -1, "enable tail-based trace sampling, keeping anomalous traces plus this fraction of healthy ones (0..1; negative: record every span)")
	traceSnap := flag.String("trace-snapshot", "", "write the kept trace spans (per class) as JSON to this file after the run")
	profileDir := flag.String("profile-dir", "", "write anomaly-triggered CPU/heap profile captures into this directory after the run")
	netsimLat := flag.Duration("netsim-latency", 0, "self server: run over a simulated network with this one-way link latency instead of TCP loopback (gives pipelining comparisons a realistic RTT)")
	flag.Parse()

	scenarios := loadgen.Preset(*scenario)
	if scenarios == nil {
		var err error
		if scenarios, err = loadgen.LoadScenarios(*scenario); err != nil {
			return fmt.Errorf("scenario %q is neither a preset nor a readable file: %w", *scenario, err)
		}
	}

	var target *ior.IOR
	var serverMetrics *obs.Registry
	var clientTransport netsim.Transport
	switch {
	case *self && *iorFlag != "":
		return fmt.Errorf("-self and -ior are mutually exclusive")
	case *self:
		var serverTransport netsim.Transport
		listen := "127.0.0.1:0"
		if *netsimLat > 0 {
			n := maqs.NewNetwork()
			n.SetLink("lg-client", "lg-server", maqs.Link{Latency: *netsimLat})
			serverTransport = n.Host("lg-server")
			clientTransport = n.Host("lg-client")
			listen = "lg-server:80"
		}
		ref, reg, shutdown, err := startSelfServer(*workers, *queueDepth, *shedDeadline, serverTransport, listen)
		if err != nil {
			return err
		}
		defer shutdown()
		target = ref
		serverMetrics = reg
		fmt.Printf("self target on %s (dispatch workers %d, queue depth %d)\n",
			ref.Profile.Addr(), *workers, *queueDepth)
		if *netsimLat > 0 {
			fmt.Printf("simulated link: %v one-way latency\n", *netsimLat)
		}
	case *iorFlag != "":
		raw := *iorFlag
		if strings.HasPrefix(raw, "@") {
			data, err := os.ReadFile(raw[1:])
			if err != nil {
				return err
			}
			raw = strings.TrimSpace(string(data))
		}
		ref, err := ior.Parse(raw)
		if err != nil {
			return fmt.Errorf("parsing -ior: %w", err)
		}
		target = ref
	default:
		return fmt.Errorf("either -self or -ior is required")
	}

	// The central bundle collects anomaly dumps from every class system
	// (shared flight recorder) and backs the -debug HTTP surface. When
	// profiles are wanted — as files or on /profile — anomaly-triggered
	// capture rides on the same shared recorder.
	centralCfg := obs.Config{}
	if *profileDir != "" || *debug != "" {
		centralCfg.Profiling = &obs.ProfilingConfig{}
	}
	central := maqs.NewObservabilityWithConfig(centralCfg)
	var tailCfg *obs.TailSamplingConfig
	if *tailSample >= 0 {
		tailCfg = &obs.TailSamplingConfig{HealthyKeepFraction: *tailSample}
	}
	runner, err := loadgen.NewRunner(loadgen.Config{
		Target:           target,
		Scenarios:        scenarios,
		Seed:             *seed,
		Transport:        clientTransport,
		ConnsPerEndpoint: *conns,
		Summary:          os.Stdout,
		SummaryEvery:     *report,
		ServerMetrics:    serverMetrics,
		Observability:    central,
		TailSampling:     tailCfg,
	})
	if err != nil {
		return err
	}
	defer runner.Close()
	central.SetDebugPage("/loadgen", runner.Status)
	central.SetDebugPage("/slo", func() any { return runner.SLOStatus() })

	var debugSrv *http.Server
	if *debug != "" {
		ln, err := net.Listen("tcp", *debug)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		mux := http.NewServeMux()
		mux.Handle("/", central.Handler())
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
		debugSrv = &http.Server{Handler: mux}
		go func() { _ = debugSrv.Serve(ln) }()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			_ = debugSrv.Shutdown(ctx)
			cancel()
		}()
		fmt.Printf("debug endpoint on http://%s/ (live status on /loadgen, budgets on /slo, profiles on /profile and /debug/pprof/)\n", ln.Addr())
	}

	// Ctrl-C ends the run early; the report covers what completed.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	var total int
	for _, s := range scenarios {
		total += s.Requests
	}
	fmt.Printf("open-loop run: %d scenarios, %d requests, seed %d\n\n", len(scenarios), total, *seed)

	rep, err := runner.Run(ctx)
	if err != nil {
		return err
	}

	fmt.Printf("\nrun finished in %.2fs: %d/%d completed, %d errors\n",
		rep.DurationSeconds, rep.TotalCompleted, rep.TotalScheduled, rep.TotalErrors)
	if rep.ServerAdmitted > 0 || rep.TotalShed > 0 {
		fmt.Printf("server admission: %d admitted, %d shed\n", rep.ServerAdmitted, rep.TotalShed)
		for name, v := range rep.ServerSheds {
			fmt.Printf("  %s %d\n", name, v)
		}
	}
	for _, c := range rep.Classes {
		fmt.Printf("\nclass %s (%s", c.Class, c.Operation)
		if c.Characteristic != "" {
			fmt.Printf(", %s", c.Characteristic)
		}
		fmt.Printf("):\n")
		fmt.Printf("  completed  %d/%d, %.0f req/s, errors %d", c.Completed, c.Scheduled, c.ThroughputRPS, c.Errors)
		if c.Errors > 0 {
			fmt.Printf(" (%s)", c.ErrKindsString())
		}
		if c.Retries > 0 || c.Degrades > 0 {
			fmt.Printf(", retries %d, degrades %d", c.Retries, c.Degrades)
		}
		fmt.Println()
		fmt.Printf("  latency    p50 %-10v p90 %-10v p99 %-10v p99.9 %-10v max %v\n",
			ns(c.Latency.P50Ns), ns(c.Latency.P90Ns), ns(c.Latency.P99Ns), ns(c.Latency.P999Ns), ns(c.Latency.MaxNs))
		fmt.Printf("  service    p50 %-10v p90 %-10v p99 %-10v p99.9 %-10v max %v\n",
			ns(c.Service.P50Ns), ns(c.Service.P90Ns), ns(c.Service.P99Ns), ns(c.Service.P999Ns), ns(c.Service.MaxNs))
		for _, o := range c.SLO {
			fmt.Printf("  slo %-10s %-8s budget %5.1f%% left  burn fast %.2f slow %.2f  (%d bad / %d good)\n",
				o.Objective, o.State, o.BudgetRemaining*100, o.FastBurn, o.SlowBurn, o.Bad, o.Good)
		}
		if c.Trace != nil {
			fmt.Printf("  traces     kept %v dropped %v evicted %d\n",
				c.Trace.Kept, c.Trace.Dropped, c.Trace.Evicted)
		}
	}
	if rep.TraceKept > 0 || rep.TraceDropped > 0 {
		fmt.Printf("\ntail sampling: %d traces kept, %d dropped\n", rep.TraceKept, rep.TraceDropped)
	}
	if dumps := central.Flight.Dumps(); len(dumps) > 0 {
		fmt.Printf("\nanomaly dumps frozen during the run (inspect with -debug and /flight?dump=<id>):\n")
		for _, d := range dumps {
			fmt.Printf("  %-28s %s\n", d.ID, d.Kind)
		}
	}

	if *out != "" {
		if err := rep.BenchDoc().WriteFile(*out); err != nil {
			return fmt.Errorf("writing %s: %w", *out, err)
		}
		fmt.Printf("\nreport written to %s\n", *out)
	}
	if *statusSnap != "" {
		data, err := json.MarshalIndent(runner.Status(), "", "  ")
		if err != nil {
			return fmt.Errorf("encoding status snapshot: %w", err)
		}
		if err := os.WriteFile(*statusSnap, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("writing %s: %w", *statusSnap, err)
		}
		fmt.Printf("status snapshot written to %s\n", *statusSnap)
	}
	if *traceSnap != "" {
		data, err := json.MarshalIndent(runner.KeptSpans(), "", "  ")
		if err != nil {
			return fmt.Errorf("encoding trace snapshot: %w", err)
		}
		if err := os.WriteFile(*traceSnap, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("writing %s: %w", *traceSnap, err)
		}
		fmt.Printf("trace snapshot written to %s\n", *traceSnap)
	}
	if *profileDir != "" {
		if err := writeProfiles(central.Profiler, *profileDir); err != nil {
			return err
		}
	}
	return nil
}

// writeProfiles drains the anomaly-triggered profiler into per-capture
// pprof files: <id>.cpu.pprof and <id>.heap.pprof.
func writeProfiles(p *obs.Profiler, dir string) error {
	if p == nil {
		return nil
	}
	p.Flush()
	sums := p.Captures()
	if len(sums) == 0 {
		fmt.Println("no anomaly-triggered profile captures this run")
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("creating %s: %w", dir, err)
	}
	written := 0
	for _, sum := range sums {
		cap, ok := p.Capture(sum.ID)
		if !ok {
			continue
		}
		if len(cap.CPU) > 0 {
			if err := os.WriteFile(filepath.Join(dir, cap.ID+".cpu.pprof"), cap.CPU, 0o644); err != nil {
				return fmt.Errorf("writing cpu profile: %w", err)
			}
			written++
		}
		if len(cap.Heap) > 0 {
			if err := os.WriteFile(filepath.Join(dir, cap.ID+".heap.pprof"), cap.Heap, 0o644); err != nil {
				return fmt.Errorf("writing heap profile: %w", err)
			}
			written++
		}
	}
	fmt.Printf("%d profile file(s) from %d capture(s) written to %s\n", written, len(sums), dir)
	return nil
}

func ns(v int64) time.Duration { return time.Duration(v).Round(time.Microsecond) }

// startSelfServer brings up the in-process target: the demo servant with
// the three standard characteristics on a loopback TCP port and
// contract-driven admission control over the flags' base policy. Its metrics
// registry is returned so the report can harvest admitted/shed counts.
func startSelfServer(workers, queueDepth int, shedDeadline time.Duration, transport netsim.Transport, listen string) (*ior.IOR, *obs.Registry, func(), error) {
	bundle := maqs.NewObservability()
	admission := maqs.NewAdmissionController(maqs.ClassPolicy{
		Workers:    workers,
		QueueDepth: queueDepth,
		Deadline:   shedDeadline,
	})
	sys, err := maqs.NewSystem(maqs.Options{
		Transport:       transport,
		Observability:   bundle,
		AdmissionPolicy: admission.Policy,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	if err := sys.Listen(listen); err != nil {
		sys.Shutdown()
		return nil, nil, nil, err
	}
	for _, mod := range []string{compression.ModuleName, encryption.ModuleName} {
		if err := sys.LoadModule(mod, nil); err != nil {
			sys.Shutdown()
			return nil, nil, nil, err
		}
	}
	skel := maqs.NewServerSkeleton(&selfServant{doc: []byte("loadgen self target")})
	skel.SetAdmission(admission)
	secure := encryption.NewImpl(0)
	secure.Transport = sys.Transport // released bindings drop their session keys
	for _, impl := range []qos.Impl{
		compression.NewImpl(0),
		secure,
		actuality.NewImpl(0, time.Minute),
	} {
		if err := skel.AddQoS(impl); err != nil {
			sys.Shutdown()
			return nil, nil, nil, err
		}
	}
	ref, err := sys.ActivateQoS("load", "IDL:maqs/Demo:1.0", skel, maqs.QoSInfo{
		Characteristics: []string{maqs.Compression, maqs.Encryption, maqs.Actuality},
		Modules:         []string{compression.ModuleName, encryption.ModuleName},
	})
	if err != nil {
		sys.Shutdown()
		return nil, nil, nil, err
	}
	return ref, bundle.Registry, sys.Shutdown, nil
}
