// Command maqs-bench regenerates the evaluation tables (E1..E11, see
// DESIGN.md §4): each experiment operationalises one claim of the paper
// and prints a table of measurements. The experiments are
// internal/experiments' — the cases `go test -bench` runs in the root
// package, measured here through testing.Benchmark at `make bench`'s
// 200 ms per case, so a table row and the BENCH_*.json row of the same name
// are one measurement — plus the run-once results (availability under
// crashes, share under skew, the bandwidth sweep).
//
// Usage:
//
//	maqs-bench           # run every experiment
//	maqs-bench E3 E5     # run selected experiments
//	maqs-bench -list     # list experiments
//	maqs-bench -metrics  # run an instrumented demo world, dump JSON
//	maqs-bench -faults   # chaos mode: demo world under a seeded fault plan
//
// Any mode may be combined with -cpuprofile/-memprofile to capture pprof
// profiles of the run (see docs/PERFORMANCE.md for the workflow):
//
//	maqs-bench -cpuprofile cpu.out E1
//	go tool pprof cpu.out
//
// With -metrics, instead of the experiment tables the bench runs a small
// fully instrumented client/server world (negotiation, compressed calls,
// renegotiation, release) sharing one observability bundle, and prints
// its JSON snapshot: metric values, per-operation span aggregates and
// the recorded spans themselves.
//
// With -faults, the same kind of world runs under a deterministic fault
// plan (segment drops, delay jitter, one partition window) with the
// client's resilience layer — retry with backoff, a per-endpoint circuit
// breaker and a QoS degradation ladder — switched on; the run ends with a
// report of injected faults, retries, breaker transitions and automatic
// renegotiations (see docs/RESILIENCE.md). Adding -flight appends the
// invocation flight recorder's JSON dump — the retained per-call record
// ring plus every anomaly dump the run froze (retry exhaustion, breaker
// openings, deadline misses, degradation steps).
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"maqs"
	"maqs/internal/characteristics/compression"
	"maqs/internal/experiments"
	"maqs/internal/orb"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("maqs-bench", flag.ContinueOnError)
	list := fs.Bool("list", false, "list experiments and exit")
	metrics := fs.Bool("metrics", false, "run an instrumented demo world and dump its observability snapshot as JSON")
	faults := fs.Bool("faults", false, "run the demo world under a seeded fault plan and report what the resilience layer did")
	faultCalls := fs.Int("fault-calls", 400, "number of invocations for the -faults chaos run")
	flight := fs.Bool("flight", false, "with -faults: append the flight recorder's JSON dump (record ring + anomaly dumps) to the chaos report")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to `file` (inspect with go tool pprof)")
	memProfile := fs.String("memprofile", "", "write an allocation profile taken at exit to `file`")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "creating cpu profile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "starting cpu profile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "creating mem profile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live objects so the profile shows steady state
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "writing mem profile: %v\n", err)
			}
		}()
	}
	if *metrics {
		if err := runMetricsDemo(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "metrics demo failed: %v\n", err)
			return 1
		}
		return 0
	}
	if *faults {
		if err := runFaultsDemo(os.Stdout, *faultCalls, *flight); err != nil {
			fmt.Fprintf(os.Stderr, "faults demo failed: %v\n", err)
			return 1
		}
		return 0
	}
	all := experiments.All()
	if *list {
		for _, e := range all {
			fmt.Printf("%-4s %s\n", e.ID, e.Name)
		}
		return 0
	}
	selected := fs.Args()
	wanted := func(id string) bool {
		if len(selected) == 0 {
			return true
		}
		for _, s := range selected {
			if strings.EqualFold(s, id) {
				return true
			}
		}
		return false
	}
	failures := 0
	for _, e := range all {
		if !wanted(e.ID) {
			continue
		}
		start := time.Now()
		table, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s (%s) failed: %v\n", e.ID, e.Name, err)
			failures++
			continue
		}
		fmt.Println(table.Render())
		fmt.Printf("(%s took %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if failures > 0 {
		return 1
	}
	return 0
}

// runMetricsDemo exercises the full instrumented invocation path on a
// simulated network — negotiation, QoS-module calls, renegotiation,
// release — with client and server sharing one observability bundle, so
// the collector holds complete client→server traces. The bundle's JSON
// snapshot goes to w.
func runMetricsDemo(w *os.File) error {
	bundle := maqs.NewObservability()
	network := maqs.NewNetwork()

	server, err := maqs.NewSystem(maqs.Options{
		Transport:     network.Host("server"),
		Observability: bundle,
	})
	if err != nil {
		return err
	}
	defer server.Shutdown()
	client, err := maqs.NewSystem(maqs.Options{
		Transport:     network.Host("client"),
		Observability: bundle,
	})
	if err != nil {
		return err
	}
	defer client.Shutdown()

	if err := server.Listen("server:5000"); err != nil {
		return err
	}
	for _, sys := range []*maqs.System{server, client} {
		if err := sys.LoadModule(compression.ModuleName, nil); err != nil {
			return err
		}
	}

	doc := bytes.Repeat([]byte("metrics demo payload, quite compressible. "), 100)
	skel := maqs.NewServerSkeleton(orb.ServantFunc(func(req *maqs.ServerRequest) error {
		switch req.Operation {
		case "fetch":
			req.Out.WriteOctets(doc)
			return nil
		default:
			return orb.NewSystemException(orb.ExcBadOperation, 1, "no op %q", req.Operation)
		}
	}))
	if err := skel.AddQoS(compression.NewImpl(0)); err != nil {
		return err
	}
	ref, err := server.ActivateQoS("doc", "IDL:demo/Doc:1.0", skel, maqs.QoSInfo{
		Characteristics: []string{maqs.Compression},
		Modules:         []string{compression.ModuleName},
	})
	if err != nil {
		return err
	}

	ctx := context.Background()
	stub := client.Stub(ref)

	if _, err := stub.Negotiate(ctx, &maqs.Proposal{
		Characteristic: maqs.Compression,
		Params:         []maqs.ParamProposal{{Name: "level", Desired: maqs.Number(6)}},
	}); err != nil {
		return err
	}
	for i := 0; i < 10; i++ {
		if _, err := stub.Call(ctx, "fetch", nil); err != nil {
			return err
		}
	}
	if _, err := stub.Renegotiate(ctx, &maqs.Proposal{
		Characteristic: maqs.Compression,
		Params:         []maqs.ParamProposal{{Name: "level", Desired: maqs.Number(9)}},
	}); err != nil {
		return err
	}
	for i := 0; i < 5; i++ {
		if _, err := stub.Call(ctx, "fetch", nil); err != nil {
			return err
		}
	}
	if err := stub.Release(ctx); err != nil {
		return err
	}

	data, err := bundle.SnapshotJSON()
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}
