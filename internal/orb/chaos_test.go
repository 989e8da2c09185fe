package orb

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"maqs/internal/cdr"
	"maqs/internal/ior"
	"maqs/internal/netsim"
	"maqs/internal/obs"
	"maqs/internal/resilience"
)

// fastRetry is a tight policy for the targeted resilience tests.
func fastRetry() *resilience.Policy {
	return &resilience.Policy{
		Retry: resilience.RetryPolicy{
			MaxAttempts: 3,
			BaseDelay:   2 * time.Millisecond,
			MaxDelay:    10 * time.Millisecond,
			Jitter:      resilience.NoJitter,
		},
		Breaker: resilience.BreakerPolicy{
			FailureThreshold: 100, // out of the way unless the test wants it
			OpenTimeout:      50 * time.Millisecond,
		},
		Seed: 1,
	}
}

func newResilientWorld(t *testing.T, pol *resilience.Policy) (*testWorld, *obs.Observability) {
	t.Helper()
	bundle := obs.New()
	n := netsim.NewNetwork()
	server := New(Options{Transport: n.Host("server")})
	if err := server.Listen("server:9000"); err != nil {
		t.Fatal(err)
	}
	servant := &echoServant{}
	ref, err := server.Adapter().Activate("echo-1", "IDL:test/Echo:1.0", servant)
	if err != nil {
		t.Fatal(err)
	}
	client := New(Options{Transport: n.Host("client"), Observability: bundle, Resilience: pol})
	t.Cleanup(func() {
		client.Shutdown()
		server.Shutdown()
	})
	return &testWorld{net: n, server: server, client: client, servant: servant, ref: ref}, bundle
}

func echoInvocation(o *ORB, ref *ior.IOR, msg string, idempotent bool) *Invocation {
	e := cdr.NewEncoder(o.Order())
	e.WriteString(msg)
	return &Invocation{
		Target:           ref,
		Operation:        "echo",
		Args:             e.Bytes(),
		ResponseExpected: true,
		Idempotent:       idempotent,
		Order:            o.Order(),
	}
}

// TestRetryRedialsAfterConnLoss: an idempotent call issued after the pooled
// connection was severed succeeds over a fresh connection. Whether that
// takes a retry depends on who notices the sever first: if the read loop
// has already evicted the connection, the call redials and succeeds first
// try (no retry to count); if the call finds the dead connection still
// pooled, its first attempt fails and the retry redials.
func TestRetryRedialsAfterConnLoss(t *testing.T) {
	w, bundle := newResilientWorld(t, fastRetry())
	ctx := context.Background()
	counter := func(name string) uint64 { return bundle.Registry.Counter(name).Value() }

	// Prime the connection pool.
	out, err := w.client.Invoke(ctx, echoInvocation(w.client, w.ref, "warm", true))
	if err != nil || out.Err() != nil {
		t.Fatalf("warm-up failed: %v / %v", err, out.Err())
	}
	warmAttempts := counter("maqs_retry_attempts_total")
	// Sever the pooled connection, then heal so a re-dial can succeed.
	w.net.Partition("client", "server")
	w.net.Heal("client", "server")

	out, err = w.client.Invoke(ctx, echoInvocation(w.client, w.ref, "again", true))
	if err != nil {
		t.Fatalf("idempotent invocation not retried over fresh conn: %v", err)
	}
	if e := out.Err(); e != nil {
		t.Fatalf("retried invocation returned exception: %v", e)
	}
	if n := counter("maqs_stripe_evict_total"); n < 1 {
		t.Fatal("the severed connection was never evicted from its stripe")
	}
	if n := counter("maqs_stripe_widen_total"); n != 2 {
		t.Fatalf("%d connections dialed, want 2: the warm-up's and one fresh one", n)
	}
	attempts := counter("maqs_retry_attempts_total") - warmAttempts
	if retries := counter("maqs_client_retries_total"); retries != attempts-1 {
		t.Fatalf("call took %d attempts but recorded %d retries", attempts, retries)
	}
}

func TestNonIdempotentNotRetriedAfterSend(t *testing.T) {
	w, bundle := newResilientWorld(t, fastRetry())
	ctx := context.Background()
	if _, err := w.client.Invoke(ctx, echoInvocation(w.client, w.ref, "warm", false)); err != nil {
		t.Fatal(err)
	}
	before := bundle.Registry.Counter("maqs_client_retries_total").Value()

	// Sever the pooled connection; the write-side failure counts as
	// "possibly sent", so a non-idempotent call must fail without retry.
	w.net.Partition("client", "server")
	w.net.Heal("client", "server")
	out, err := w.client.Invoke(ctx, echoInvocation(w.client, w.ref, "once", false))
	var sys *SystemException
	switch {
	case err != nil:
		if !errors.As(err, &sys) {
			t.Fatalf("err = %v, want a SystemException", err)
		}
		// Pre-wire failure (readLoop won the race): retry is allowed even
		// for non-idempotent calls, so a success is also acceptable.
		if isNotSent(err) {
			t.Fatalf("pre-wire failures must be retried, got terminal %v", err)
		}
	case out != nil && out.Err() != nil:
		if !errors.As(out.Err(), &sys) {
			t.Fatalf("outcome err = %v, want a SystemException", out.Err())
		}
	}
	_ = before // retries may have happened only for pre-wire failures
}

func TestBreakerOpensAndRejectsFast(t *testing.T) {
	pol := fastRetry()
	pol.Retry.MaxAttempts = 1
	pol.Breaker.FailureThreshold = 2
	pol.Breaker.OpenTimeout = time.Minute // keep it open for the assertion

	bundle := obs.New()
	n := netsim.NewNetwork() // no listener at all: every dial is refused
	client := New(Options{Transport: n.Host("client"), Observability: bundle, Resilience: pol})
	t.Cleanup(client.Shutdown)
	ref := ior.New("IDL:test/Echo:1.0", "server", 9000, []byte("echo-1"))

	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := client.Invoke(ctx, echoInvocation(client, ref, "x", true)); err == nil {
			t.Fatal("dial to missing server succeeded")
		}
	}
	br := client.Breakers().Get("server:9000")
	if br.State() != resilience.Open {
		t.Fatalf("breaker state = %v, want Open after %d failures", br.State(), 2)
	}

	start := time.Now()
	_, err := client.Invoke(ctx, echoInvocation(client, ref, "x", true))
	elapsed := time.Since(start)
	var sys *SystemException
	if !errors.As(err, &sys) || sys.Name != ExcTransient {
		t.Fatalf("rejected invocation err = %v, want TRANSIENT", err)
	}
	if !isNotSent(err) {
		t.Fatal("breaker rejection must be marked not-sent")
	}
	if elapsed > 50*time.Millisecond {
		t.Fatalf("open breaker took %v to reject; want fast failure", elapsed)
	}
	if v := bundle.Registry.Counter("maqs_breaker_transitions_total").Value(); v == 0 {
		t.Fatal("no breaker transition recorded in metrics")
	}
	if v := bundle.Registry.Gauge("maqs_breaker_open").Value(); v != 1 {
		t.Fatalf("maqs_breaker_open gauge = %d, want 1", v)
	}
}

func TestRetryRespectsDeadlineBudget(t *testing.T) {
	pol := fastRetry()
	pol.Retry.MaxAttempts = 50
	pol.Retry.BaseDelay = 200 * time.Millisecond
	pol.Retry.MaxDelay = 200 * time.Millisecond

	n := netsim.NewNetwork()
	client := New(Options{Transport: n.Host("client"), Resilience: pol})
	t.Cleanup(client.Shutdown)
	ref := ior.New("IDL:test/Echo:1.0", "server", 9000, []byte("echo-1"))

	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := client.Invoke(ctx, echoInvocation(client, ref, "x", true))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("dial to missing server succeeded")
	}
	// 50 attempts × 200ms backoff would take ~10s; the deadline budget
	// must stop the loop around the 250ms context deadline instead.
	if elapsed > time.Second {
		t.Fatalf("retry loop ran %v, deadline budget not honoured", elapsed)
	}
}

// TestChaosFlightRecorderAcceptance drives the demo world across a
// partition and asserts the forensic contract end to end over the real
// HTTP surface: the anomalies freeze dumps retrievable at
// /flight?dump=<id> whose trigger records carry breaker state and
// attempt counts, and the breaker/pool telemetry shows up in the
// /metrics text exposition.
func TestChaosFlightRecorderAcceptance(t *testing.T) {
	pol := fastRetry()
	pol.Retry.MaxAttempts = 3
	pol.Breaker.FailureThreshold = 4
	pol.Breaker.OpenTimeout = time.Minute
	w, bundle := newResilientWorld(t, pol)
	bundle.Flight.SetDumpCooldown(0)
	ctx := context.Background()

	// Healthy traffic first: fills the record ring and exercises the
	// pending/encoder/frame pools.
	for i := 0; i < 10; i++ {
		out, err := w.client.Invoke(ctx, echoInvocation(w.client, w.ref, "warm", true))
		if err != nil || out.Err() != nil {
			t.Fatalf("healthy call %d failed: %v / %v", i, err, out.Err())
		}
	}
	// Partition (no heal): every attempt fails, so calls exhaust their
	// retries and the breaker eventually opens.
	w.net.Partition("client", "server")
	for i := 0; i < 6; i++ {
		if _, err := w.client.Invoke(ctx, echoInvocation(w.client, w.ref, "doomed", true)); err == nil {
			t.Fatal("call through partition succeeded")
		}
	}
	if st := w.client.Breakers().Get("server:9000").State(); st != resilience.Open {
		t.Fatalf("breaker state = %v, want Open", st)
	}

	srv := httptest.NewServer(bundle.Handler())
	defer srv.Close()
	getBody := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	// /flight index: at least one anomaly dump was frozen.
	code, body := getBody("/flight")
	if code != http.StatusOK {
		t.Fatalf("/flight status %d", code)
	}
	var snap obs.FlightSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/flight JSON: %v", err)
	}
	if len(snap.Dumps) == 0 {
		t.Fatal("chaos produced no anomaly dumps")
	}
	kinds := map[string]string{}
	for _, d := range snap.Dumps {
		kinds[d.Kind] = d.ID
	}
	exhaustedID, ok := kinds[obs.AnomalyRetryExhausted]
	if !ok {
		t.Fatalf("no retry-exhausted dump among %v", kinds)
	}
	if _, ok := kinds[obs.AnomalyBreakerOpen]; !ok {
		t.Fatalf("no breaker-open dump among %v", kinds)
	}

	// The frozen dump is retrievable by id and its trigger record carries
	// the forensic state: breaker state at admission and attempts consumed.
	code, body = getBody("/flight?dump=" + exhaustedID)
	if code != http.StatusOK {
		t.Fatalf("dump retrieval status %d", code)
	}
	var dump obs.FlightDump
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatalf("dump JSON: %v", err)
	}
	if dump.Trigger.Attempts != pol.Retry.MaxAttempts {
		t.Errorf("trigger attempts = %d, want %d", dump.Trigger.Attempts, pol.Retry.MaxAttempts)
	}
	if dump.Trigger.BreakerState == "" {
		t.Error("trigger record lost the breaker state")
	}
	if dump.Trigger.Endpoint != "server:9000" {
		t.Errorf("trigger endpoint = %q", dump.Trigger.Endpoint)
	}
	if len(dump.Records) == 0 {
		t.Error("dump froze no context records")
	}

	// /metrics text exposition: breaker transition counter, per-endpoint
	// breaker state gauge, retry telemetry and pool hit/miss counters.
	code, body = getBody("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	text := string(body)
	for _, want := range []string{
		"maqs_breaker_transitions_total",
		`maqs_breaker_state{endpoint="server:9000"} 1`, // Open = 1
		"maqs_retry_attempts_total",
		"maqs_retry_backoff_seconds_count",
		"maqs_orb_future_pool_hits_total",
		"maqs_orb_future_pool_misses_total",
		"maqs_cdr_encoder_pool_hits_total",
		"maqs_giop_frame_pool_hits_total",
		"maqs_giop_frame_bytes_count",
		`maqs_stripe_pending{endpoint="server:9000"} 0`, // all calls done
		"maqs_stripe_widen_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestChaosSeededFaultPlan is the acceptance chaos run: 1000 invocations
// against the demo world under a seeded fault plan (5% drop + 50ms
// jitter + one partition window). Every invocation must complete within
// its deadline budget — success or clean exception, never a hang — the
// breaker must open during the partition and recover afterwards, retries
// must be recorded, and no goroutines may leak.
func TestChaosSeededFaultPlan(t *testing.T) {
	baseline := runtime.NumGoroutine()

	bundle := obs.New()
	n := netsim.NewNetwork()
	n.Seed(7)
	n.SetTimeScale(0.5) // compress simulated delays to keep the run short
	server := New(Options{Transport: n.Host("server")})
	if err := server.Listen("server:9000"); err != nil {
		t.Fatal(err)
	}
	servant := &echoServant{}
	ref, err := server.Adapter().Activate("echo-1", "IDL:test/Echo:1.0", servant)
	if err != nil {
		t.Fatal(err)
	}
	client := New(Options{
		Transport: n.Host("client"),
		// Stripe the endpoint over several connections: the chaos gate
		// must hold with pooling and striping enabled, and a dropped
		// segment then only fails one stripe member's in-flight requests.
		ConnsPerEndpoint: 4,
		Observability:    bundle,
		Resilience: &resilience.Policy{
			Retry: resilience.RetryPolicy{
				MaxAttempts:       6,
				BaseDelay:         5 * time.Millisecond,
				MaxDelay:          60 * time.Millisecond,
				Jitter:            0.2,
				PerAttemptTimeout: 150 * time.Millisecond,
			},
			// The threshold rides through connection churn (a dropped
			// segment kills the multiplexed conn and fails the whole
			// in-flight batch, often across several retry rounds) but
			// trips on the sustained fast failures of the partition
			// window.
			Breaker: resilience.BreakerPolicy{
				FailureThreshold: 100,
				OpenTimeout:      30 * time.Millisecond,
				HalfOpenProbes:   2,
			},
			Seed: 42,
		},
	})

	var transMu sync.Mutex
	var transitions []resilience.Transition
	client.Breakers().Subscribe(func(tr resilience.Transition) {
		transMu.Lock()
		transitions = append(transitions, tr)
		transMu.Unlock()
	})

	inj := n.InstallFaults(netsim.FaultPlan{Seed: 99, Rules: []netsim.FaultRule{
		{Kind: netsim.FaultDrop, Probability: 0.05},
		{Kind: netsim.FaultDelay, Jitter: 50 * time.Millisecond, Probability: 0.5},
		{Kind: netsim.FaultPartition, Src: "client", Dst: "server", From: 200 * time.Millisecond, Until: 600 * time.Millisecond},
	}})

	// Keep concurrency moderate: every invocation multiplexes over one
	// pooled connection, and a single dropped segment desyncs GIOP and
	// fails the whole in-flight batch. With small batches the retry
	// layer absorbs conn churn; with huge ones each death looks like a
	// sustained outage and the breaker (correctly) locks everyone out.
	const (
		totalCalls   = 1000
		workers      = 8
		callDeadline = 3 * time.Second
	)
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		successes int
		failures  int
		slowest   time.Duration
		errKinds  = map[string]int{}
	)
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range work {
				ctx, cancel := context.WithTimeout(context.Background(), callDeadline)
				start := time.Now()
				out, err := client.Invoke(ctx, echoInvocation(client, ref, "chaos", true))
				elapsed := time.Since(start)
				cancel()

				if err == nil && out != nil {
					err = out.Err()
				}
				mu.Lock()
				if elapsed > slowest {
					slowest = elapsed
				}
				if err == nil {
					successes++
				} else {
					failures++
					msg := err.Error()
					if len(msg) > 60 {
						msg = msg[:60]
					}
					errKinds[msg]++
					var sys *SystemException
					clean := errors.As(err, &sys) ||
						errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
					if !clean {
						mu.Unlock()
						t.Errorf("unclean failure: %v", err)
						continue
					}
				}
				mu.Unlock()
			}
		}()
	}
	// Pace the feeder so the run spans the whole fault schedule — in
	// particular the 200–500ms partition window — instead of draining
	// the queue before the first fault fires.
	for i := 0; i < totalCalls; i++ {
		work <- i
		time.Sleep(time.Millisecond)
	}
	close(work)

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("chaos run hung: invocations did not complete")
	}

	transMu.Lock()
	trans := len(transitions)
	transMu.Unlock()
	t.Logf("chaos: %d ok, %d clean failures, slowest %v, %d breaker transitions, faults %+v",
		successes, failures, slowest, trans, inj.Stats())
	for msg, count := range errKinds {
		t.Logf("  %4d × %s", count, msg)
	}

	if successes+failures != totalCalls {
		t.Fatalf("accounted %d invocations, want %d", successes+failures, totalCalls)
	}
	if successes < totalCalls/2 {
		t.Fatalf("only %d/%d invocations succeeded; retries should mask most faults", successes, totalCalls)
	}
	// Deadline budgets: nothing may run meaningfully past its context.
	if slowest > callDeadline+500*time.Millisecond {
		t.Fatalf("slowest invocation took %v, exceeding its %v budget", slowest, callDeadline)
	}

	// The plan must actually have injected faults, and the client must
	// have fought back.
	stats := inj.Stats()
	if stats.Dropped == 0 {
		t.Error("fault plan dropped nothing")
	}
	if stats.Partitioned == 0 && stats.RefusedDials == 0 {
		t.Error("partition window never fired")
	}
	if n := bundle.Registry.Counter("maqs_client_retries_total").Value(); n == 0 {
		t.Error("no retries recorded under 5% drop + partition")
	}

	// Breaker lifecycle: opened during the partition, recovered after.
	n.ClearFaults()
	recoverCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	for client.Breakers().Get("server:9000").State() != resilience.Closed {
		if recoverCtx.Err() != nil {
			t.Fatalf("breaker never recovered; state %v", client.Breakers().Get("server:9000").State())
		}
		_, _ = client.Invoke(recoverCtx, echoInvocation(client, ref, "probe", true))
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	transMu.Lock()
	var opened, probed, closed bool
	for _, tr := range transitions {
		switch tr.To {
		case resilience.Open:
			opened = true
		case resilience.HalfOpen:
			probed = true
		case resilience.Closed:
			closed = true
		}
	}
	transMu.Unlock()
	if !opened || !probed || !closed {
		t.Fatalf("breaker lifecycle incomplete: opened=%v half-open=%v closed=%v (%d transitions)",
			opened, probed, closed, len(transitions))
	}

	// No goroutine leaks once both ORBs are down.
	client.Shutdown()
	server.Shutdown()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	t.Fatalf("goroutine leak: %d now vs %d at start\n%s",
		runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
}
