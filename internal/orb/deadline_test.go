package orb

import (
	"context"
	"errors"
	"log/slog"
	"sync/atomic"
	"testing"
	"time"

	"maqs/internal/ior"
	"maqs/internal/netsim"
	"maqs/internal/obs"
)

// The default deadline (Options.RequestTimeout) travels on the Invocation
// as a value instead of in a derived context. These tests pin what a
// synchronous caller sees of it: the same exceptions at the same times as
// when ORB.Invoke wrapped the context.

// hangServant never answers "hang" before release closes — or, given a
// forward target, answers it with a LOCATION_FORWARD after delay — and
// echoes everything else.
type hangServant struct {
	echoServant
	release chan struct{}
	forward *ior.IOR
	delay   time.Duration
}

func (s *hangServant) Invoke(req *ServerRequest) error {
	if req.Operation != "hang" {
		return s.echoServant.Invoke(req)
	}
	if s.forward != nil {
		time.Sleep(s.delay)
		return &ForwardRequest{To: s.forward}
	}
	<-s.release
	return nil
}

// cancelCounter is a slog.Handler counting the server's "cancel request
// received" diagnostics — the only trace a CancelRequest leaves.
type cancelCounter struct{ n *atomic.Int32 }

func (cancelCounter) Enabled(context.Context, slog.Level) bool { return true }
func (h cancelCounter) Handle(_ context.Context, r slog.Record) error {
	if r.Message == "orb: cancel request received" {
		h.n.Add(1)
	}
	return nil
}
func (h cancelCounter) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h cancelCounter) WithGroup(string) slog.Handler      { return h }

type hangWorld struct {
	net     *netsim.Network
	client  *ORB
	ref     *ior.IOR
	cancels *atomic.Int32
}

func newHangWorld(t *testing.T, clientOpts Options) *hangWorld {
	t.Helper()
	n := netsim.NewNetwork()
	cancels := new(atomic.Int32)
	server := New(Options{Transport: n.Host("server"), Logger: slog.New(cancelCounter{cancels})})
	if err := server.Listen("server:9400"); err != nil {
		t.Fatal(err)
	}
	servant := &hangServant{release: make(chan struct{})}
	ref, err := server.Adapter().Activate("hang", "IDL:test/Echo:1.0", servant)
	if err != nil {
		t.Fatal(err)
	}
	clientOpts.Transport = n.Host("client")
	client := New(clientOpts)
	t.Cleanup(func() {
		close(servant.release)
		client.Shutdown()
		server.Shutdown()
	})
	return &hangWorld{net: n, client: client, ref: ref, cancels: cancels}
}

func (w *hangWorld) invocation(op string) *Invocation {
	inv := echoInvocation(w.client, w.ref, "x", false)
	inv.Operation = op
	return inv
}

func wantTimeout(t *testing.T, err error, minor uint32) {
	t.Helper()
	var sys *SystemException
	if !errors.As(err, &sys) || sys.Name != ExcTimeout || sys.Minor != minor {
		t.Fatalf("want TIMEOUT minor %d, got %v", minor, err)
	}
}

// TestSyncRequestTimeout: a server that never answers makes a deadline-less
// synchronous call fail with TIMEOUT minor 1 after Options.RequestTimeout,
// cancel on the wire and give its pipeline-window slot back; the connection
// and the pooled rendezvous stay good for later calls.
func TestSyncRequestTimeout(t *testing.T) {
	const timeout = 60 * time.Millisecond
	w := newHangWorld(t, Options{PipelineDepth: 1, RequestTimeout: timeout})
	ctx := context.Background()

	start := time.Now()
	_, err := w.client.Invoke(ctx, w.invocation("hang"))
	elapsed := time.Since(start)
	wantTimeout(t, err, 1)
	if isNotSent(err) {
		t.Fatal("a timeout waiting for the reply must not be retry-safe")
	}
	if elapsed < timeout || elapsed > 20*timeout {
		t.Fatalf("timed out after %v, want about %v", elapsed, timeout)
	}
	for deadline := time.Now().Add(2 * time.Second); w.cancels.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("server saw no CancelRequest for the abandoned call")
		}
		time.Sleep(time.Millisecond)
	}
	conn, err := w.client.getConn(w.ref.Profile.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if held := len(conn.window); held != 0 {
		t.Fatalf("abandoned call still holds %d pipeline-window slot(s)", held)
	}
	if n := conn.inFlight.Load(); n != 0 {
		t.Fatalf("abandoned call still registered (%d in flight)", n)
	}
	// The window is one deep: these only run if the slot came back, and
	// they only succeed if no recycled timer fires ahead of its time.
	for i := 0; i < 50; i++ {
		if got, err := callEcho(t, w.client, w.ref, "after"); err != nil || got != "after" {
			t.Fatalf("call %d after the timeout: %q, %v", i, got, err)
		}
	}
}

// TestDeadlineTimerReuse pins the pooled timer's ownership rule: disarm
// leaves no tick behind, whether or not the timer had fired, so the next
// arm of the recycled timer cannot fire early.
func TestDeadlineTimerReuse(t *testing.T) {
	var dt deadlineTimer
	ready := func(c <-chan time.Time) bool {
		select {
		case <-c:
			return true
		default:
			return false
		}
	}
	dt.arm(time.Hour)
	dt.disarm() // stopped before firing
	c := dt.arm(time.Millisecond)
	time.Sleep(20 * time.Millisecond)
	dt.disarm() // fired, tick never received
	if c = dt.arm(time.Hour); ready(c) {
		t.Fatal("recycled timer delivered the previous cycle's tick")
	}
	dt.disarm()
	c = dt.arm(time.Millisecond)
	<-c // fired and observed, as on the timeout path
	dt.disarm()
	if c = dt.arm(time.Hour); ready(c) {
		t.Fatal("recycled timer fired early after an observed tick")
	}
	dt.disarm()
}

// TestCallerDeadlineWins: a context deadline replaces the default in both
// directions — a short one cuts the call short of RequestTimeout, a long
// one lets the call outlive it.
func TestCallerDeadlineWins(t *testing.T) {
	t.Run("shorter", func(t *testing.T) {
		w := newHangWorld(t, Options{RequestTimeout: time.Minute})
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		start := time.Now()
		inv := w.invocation("hang")
		_, err := w.client.Invoke(ctx, inv)
		wantTimeout(t, err, 1)
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("call ran %v past a 50ms context deadline", elapsed)
		}
		if !inv.deadline.IsZero() {
			t.Fatal("default deadline stamped although the context carries one")
		}
	})
	t.Run("longer", func(t *testing.T) {
		w := newHangWorld(t, Options{RequestTimeout: 40 * time.Millisecond})
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		out, err := w.client.Invoke(ctx, w.invocation("slow")) // 200ms
		if err != nil || out.Err() != nil {
			t.Fatalf("call under a 10s context deadline cut short: %v / %v", err, out.Err())
		}
	})
	t.Run("cancelled", func(t *testing.T) {
		w := newHangWorld(t, Options{RequestTimeout: time.Minute})
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(30*time.Millisecond, cancel)
		if _, err := w.client.Invoke(ctx, w.invocation("hang")); !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	})
}

// TestResilienceSeesDefaultDeadline: with a resilience policy installed,
// the retry loop budgets its backoff against the default deadline and the
// flight record reports it, exactly as when the context carried it.
func TestResilienceSeesDefaultDeadline(t *testing.T) {
	pol := fastRetry()
	pol.Retry.MaxAttempts = 50
	pol.Retry.BaseDelay = 200 * time.Millisecond
	pol.Retry.MaxDelay = 200 * time.Millisecond
	const timeout = 250 * time.Millisecond

	n := netsim.NewNetwork()
	bundle := obs.New()
	client := New(Options{Transport: n.Host("client"), Resilience: pol, Observability: bundle, RequestTimeout: timeout})
	t.Cleanup(client.Shutdown)
	ref := ior.New("IDL:test/Echo:1.0", "server", 9000, []byte("echo-1")) // nobody listens

	start := time.Now()
	_, err := client.Invoke(context.Background(), echoInvocation(client, ref, "x", true))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("dial to missing server succeeded")
	}
	// 50 attempts x 200ms backoff would take ~10s; the default budget
	// admits one backoff and must stop the loop before the second.
	if elapsed > time.Second {
		t.Fatalf("retry loop ran %v, default deadline budget not honoured", elapsed)
	}
	recs := bundle.Flight.Records(1)
	if len(recs) != 1 {
		t.Fatalf("flight recorder holds %d records, want 1", len(recs))
	}
	if b := recs[0].DeadlineBudget; b <= 0 || b > timeout {
		t.Fatalf("flight record DeadlineBudget = %v, want (0, %v]", b, timeout)
	}
	if a := recs[0].Attempts; a > 2 {
		t.Fatalf("flight record Attempts = %d, want at most 2 (one backoff fits a %v budget)", a, timeout)
	}
}

// TestForwardHopsShareOneBudget: the hops of a LOCATION_FORWARD chain spend
// one default deadline between them, not one each.
func TestForwardHopsShareOneBudget(t *testing.T) {
	const timeout, firstHop = 400 * time.Millisecond, 300 * time.Millisecond
	w := newHangWorld(t, Options{RequestTimeout: timeout})
	// The first hop answers with a forward after most of the budget is
	// spent; the second hop never answers.
	old := New(Options{Transport: w.net.Host("old")})
	if err := old.Listen("old:1"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(old.Shutdown)
	oldRef, err := old.Adapter().Activate("fwd", "IDL:test/Echo:1.0",
		&hangServant{forward: w.ref, delay: firstHop})
	if err != nil {
		t.Fatal(err)
	}
	inv := echoInvocation(w.client, oldRef, "x", false)
	inv.Operation = "hang"
	start := time.Now()
	_, err = w.client.Invoke(context.Background(), inv)
	elapsed := time.Since(start)
	wantTimeout(t, err, 1)
	if elapsed < timeout || elapsed > timeout+firstHop-50*time.Millisecond {
		t.Fatalf("forwarded call gave up after %v: want about %v (one budget), not %v (one per hop)",
			elapsed, timeout, timeout+firstHop)
	}
}
