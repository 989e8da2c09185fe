package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"maqs"
	"maqs/internal/characteristics/compression"
	"maqs/internal/orb"
)

// runFaultsDemo runs the demo world under a seeded fault plan: 5% segment
// drop, 50ms delay jitter and one network partition window, against a
// client with retry, circuit breaking and a QoS degradation ladder
// installed. It prints what the resilience layer did: call outcomes,
// injected faults, breaker transitions and automatic QoS renegotiations.
// With flight set, the chaos report is followed by the flight recorder's
// JSON dump: the retained record ring and every frozen anomaly dump.
func runFaultsDemo(w *os.File, calls int, flight bool) error {
	bundle := maqs.NewObservability()
	network := maqs.NewNetwork()
	network.Seed(7)

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
		Resilience: &maqs.ResiliencePolicy{
			Retry: maqs.RetryPolicy{
				MaxAttempts:       6,
				BaseDelay:         5 * time.Millisecond,
				MaxDelay:          60 * time.Millisecond,
				Jitter:            0.2,
				PerAttemptTimeout: 150 * time.Millisecond,
			},
			Breaker: maqs.BreakerPolicy{
				FailureThreshold: 100,
				OpenTimeout:      30 * time.Millisecond,
				HalfOpenProbes:   2,
			},
			Seed: 42,
		},
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

	doc := make([]byte, 4096)
	for i := range doc {
		doc[i] = byte('a' + i%17)
	}
	skel := maqs.NewServerSkeleton(orb.ServantFunc(func(req *maqs.ServerRequest) error {
		if req.Operation != "fetch" {
			return orb.NewSystemException(orb.ExcBadOperation, 1, "no op %q", req.Operation)
		}
		req.Out.WriteOctets(doc)
		return nil
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
	stub.DeclareIdempotent("fetch")
	// Preferences: compression level 6, else cheap compression (level 1,
	// the offer's floor). The plan binds level 6; while the contract's
	// error budget burns (WatchSLO reads the state System.Stub's SLO
	// observer produced for each call), the Degrader steps down to level 1.
	level := func(n float64) *maqs.Proposal {
		return &maqs.Proposal{
			Characteristic: maqs.Compression,
			Params:         []maqs.ParamProposal{{Name: "level", Desired: maqs.Number(n)}},
		}
	}
	degrader, err := stub.NegotiatePlan(ctx, maqs.NewFallback("compression",
		maqs.NewLeaf("compression", 2, level(6)),
		maqs.NewLeaf("cheap-compression", 1, level(1)),
	))
	if err != nil {
		return err
	}
	stub.AddObserver(degrader.WatchSLO(client.SLO))
	degrader.WatchBreakers(client.ORB.Breakers())

	var transMu sync.Mutex
	var transitions []maqs.BreakerTransition
	client.ORB.Breakers().Subscribe(func(tr maqs.BreakerTransition) {
		transMu.Lock()
		transitions = append(transitions, tr)
		transMu.Unlock()
	})

	start := time.Now()
	inj := network.InstallFaults(maqs.FaultPlan{Seed: 99, Rules: []maqs.FaultRule{
		{Kind: maqs.FaultDrop, Probability: 0.05},
		{Kind: maqs.FaultDelay, Jitter: 50 * time.Millisecond, Probability: 0.5},
		{Kind: maqs.FaultPartition, Src: "client", Dst: "server",
			From: 200 * time.Millisecond, Until: 600 * time.Millisecond},
	}})

	const workers = 8
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		successes int
		failures  int
	)
	work := make(chan struct{})
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range work {
				callCtx, cancel := context.WithTimeout(ctx, 3*time.Second)
				_, err := stub.Call(callCtx, "fetch", nil)
				cancel()
				mu.Lock()
				if err == nil {
					successes++
				} else {
					failures++
				}
				mu.Unlock()
			}
		}()
	}
	// Pace the load so the run spans the fault schedule: healthy traffic
	// before the partition, the outage itself, and recovery after it.
	for i := 0; i < calls; i++ {
		work <- struct{}{}
		time.Sleep(5 * time.Millisecond)
	}
	close(work)
	wg.Wait()
	elapsed := time.Since(start)

	// Recovery phase: clear the faults and probe until the breaker closes
	// again, which also releases any degradation left pending while the
	// endpoint was unreachable.
	network.ClearFaults()
	breaker := client.ORB.Breakers().Get("server:5000")
	recoverDeadline := time.Now().Add(5 * time.Second)
	for breaker.State() != maqs.BreakerClosed && time.Now().Before(recoverDeadline) {
		probeCtx, cancel := context.WithTimeout(ctx, time.Second)
		_, _ = stub.Call(probeCtx, "fetch", nil)
		cancel()
		time.Sleep(10 * time.Millisecond)
	}
	// Give the asynchronous renegotiation a moment to land.
	time.Sleep(300 * time.Millisecond)

	reg := bundle.Registry
	stats := inj.Stats()
	fmt.Fprintf(w, "chaos run: %d calls in %v under seeded fault plan\n\n", calls, elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "  outcomes        %d ok, %d failed\n", successes, failures)
	fmt.Fprintf(w, "  faults injected %d dropped, %d delayed, %d refused dials, %d severed\n",
		stats.Dropped, stats.Delayed, stats.RefusedDials, stats.Partitioned+stats.Resets)
	fmt.Fprintf(w, "  retries         %d (maqs_client_retries_total)\n",
		reg.Counter("maqs_client_retries_total").Value())
	fmt.Fprintf(w, "  breaker         %d transitions, now %s\n",
		len(transitions), client.ORB.Breakers().Get("server:5000").State())
	for _, tr := range transitions {
		fmt.Fprintf(w, "                  %s: %s -> %s\n", tr.Endpoint, tr.From, tr.To)
	}
	fmt.Fprintf(w, "  qos degradation %d down, %d up, ladder level %d\n",
		reg.Counter("maqs_qos_degradations_total").Value(),
		reg.Counter("maqs_qos_recoveries_total").Value(),
		degrader.Level())
	if b := stub.Binding(); b != nil {
		fmt.Fprintf(w, "  contract        %s level %.0f (epoch %d)\n",
			b.Characteristic, b.Contract.Number("level", -1), b.Contract.Epoch)
	}

	if flight {
		fr := bundle.Flight
		dump := struct {
			Snapshot any                `json:"snapshot"`
			Dumps    []*maqs.FlightDump `json:"dumps"`
		}{Snapshot: fr.Snapshot(0)}
		for _, s := range fr.Dumps() {
			if d, ok := fr.Dump(s.ID); ok {
				dump.Dumps = append(dump.Dumps, d)
			}
		}
		data, err := json.MarshalIndent(dump, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\nflight recorder:\n%s\n", data)
	}
	return nil
}
