package orb

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"maqs/internal/ior"
	"maqs/internal/netsim"
)

// Future is the client's only reply rendezvous and clientConn.send its only
// request writer. These tests pin what that merge made load-bearing: the one
// ownership rule (an abandoned future is never pooled) under synchronous
// callers, teardown reaching them as an error, and the default deadline
// counted once, from dispatch, on every path.

// TestAsyncDefaultDeadlineCountsFromDispatch: a deadline-less asynchronous
// call has Options.RequestTimeout from its dispatch — not from its Wait, and
// not once for the pipeline window and once more for the reply.
func TestAsyncDefaultDeadlineCountsFromDispatch(t *testing.T) {
	const timeout = 200 * time.Millisecond
	ctx := context.Background()

	t.Run("wait after a pause", func(t *testing.T) {
		w := newHangWorld(t, Options{RequestTimeout: timeout})
		start := time.Now()
		fut, err := w.client.InvokeAsync(ctx, w.invocation("hang"))
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(120 * time.Millisecond)
		_, err = fut.Wait(ctx)
		elapsed := time.Since(start)
		wantTimeout(t, err, 1)
		if elapsed < timeout || elapsed > timeout+80*time.Millisecond {
			t.Fatalf("Wait gave up %v after dispatch: want about %v, not %v (counted from Wait)",
				elapsed, timeout, timeout+120*time.Millisecond)
		}
	})

	t.Run("wait after a full window", func(t *testing.T) {
		w := newHangWorld(t, Options{RequestTimeout: timeout, PipelineDepth: 1})
		holder, err := w.client.InvokeAsync(ctx, w.invocation("hang"))
		if err != nil {
			t.Fatal(err)
		}
		// The holder gives its slot back after 140ms, so the second
		// dispatch spends most of its budget in the window.
		go func() {
			holderCtx, cancel := context.WithTimeout(ctx, 140*time.Millisecond)
			defer cancel()
			holder.Wait(holderCtx)
		}()
		start := time.Now()
		fut, err := w.client.InvokeAsync(ctx, w.invocation("hang"))
		if err != nil {
			t.Fatalf("dispatch after the slot came back: %v", err)
		}
		if queued := time.Since(start); queued < 100*time.Millisecond {
			t.Fatalf("dispatch passed a full window after %v", queued)
		}
		_, err = fut.Wait(ctx)
		elapsed := time.Since(start)
		wantTimeout(t, err, 1)
		if elapsed < timeout || elapsed > timeout+100*time.Millisecond {
			t.Fatalf("call gave up %v after dispatch: want about %v (one budget), not %v (window + a fresh one)",
				elapsed, timeout, 140*time.Millisecond+timeout)
		}
	})

	t.Run("window never frees", func(t *testing.T) {
		w := newHangWorld(t, Options{RequestTimeout: timeout, PipelineDepth: 1})
		if _, err := w.client.InvokeAsync(ctx, w.invocation("hang")); err != nil {
			t.Fatal(err)
		}
		for _, dispatch := range []func() error{
			func() error { _, err := w.client.InvokeAsync(ctx, w.invocation("hang")); return err },
			func() error { _, err := w.client.Invoke(ctx, w.invocation("hang")); return err },
		} {
			start := time.Now()
			err := dispatch()
			elapsed := time.Since(start)
			wantTimeout(t, err, 7)
			if !isNotSent(err) {
				t.Fatalf("a request that never got a window slot is retry-safe, got %v", err)
			}
			if elapsed < timeout/2 || elapsed > timeout+100*time.Millisecond {
				t.Fatalf("full window gave up after %v, want within one budget of %v", elapsed, timeout)
			}
		}
	})
}

// muteServer accepts connections and never answers on them.
type muteServer struct {
	mu    sync.Mutex
	conns []net.Conn
}

func newMuteServer(t *testing.T, n *netsim.Network) (*muteServer, *ior.IOR) {
	t.Helper()
	l, err := n.Host("mute").Listen("mute:1")
	if err != nil {
		t.Fatal(err)
	}
	s := &muteServer{}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns = append(s.conns, c)
			s.mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		l.Close()
		s.hangUp()
	})
	return s, ior.New("IDL:test/Echo:1.0", "mute", 1, []byte("nobody"))
}

// hangUp closes every accepted connection.
func (s *muteServer) hangUp() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.conns {
		c.Close()
	}
	s.conns = nil
}

// TestLocateDefaultDeadline: a LocateRequest nobody answers fails with
// TIMEOUT after Options.RequestTimeout when the context has no deadline.
func TestLocateDefaultDeadline(t *testing.T) {
	const timeout = 80 * time.Millisecond
	n := netsim.NewNetwork()
	_, ref := newMuteServer(t, n)
	client := New(Options{Transport: n.Host("client"), RequestTimeout: timeout})
	t.Cleanup(client.Shutdown)

	start := time.Now()
	here, err := client.Locate(context.Background(), ref)
	elapsed := time.Since(start)
	wantTimeout(t, err, 8)
	if here {
		t.Fatal("a locate nobody answered reported the object here")
	}
	if elapsed < timeout || elapsed > 10*timeout {
		t.Fatalf("locate gave up after %v, want about %v", elapsed, timeout)
	}
}

// TestLocateFailsWithTeardownCause: a connection that dies under a pending
// locate fails it with the COMM_FAILURE that killed the connection — not
// with "object not here".
func TestLocateFailsWithTeardownCause(t *testing.T) {
	n := netsim.NewNetwork()
	server, ref := newMuteServer(t, n)
	client := New(Options{Transport: n.Host("client"), RequestTimeout: time.Minute})
	t.Cleanup(client.Shutdown)

	time.AfterFunc(30*time.Millisecond, server.hangUp)
	here, err := client.Locate(context.Background(), ref)
	var sys *SystemException
	if !errors.As(err, &sys) || sys.Name != ExcCommFailure {
		t.Fatalf("locate over a dying connection: here=%v err=%v, want COMM_FAILURE", here, err)
	}
}

// raceServant echoes after a delay jittered around the client's
// RequestTimeout, so replies and timeouts race on every call.
type raceServant struct {
	mu     sync.Mutex
	rng    *rand.Rand
	around time.Duration
}

func (s *raceServant) Invoke(req *ServerRequest) error {
	msg, err := req.In().ReadString()
	if err != nil {
		return err
	}
	s.mu.Lock()
	d := s.around/4 + time.Duration(s.rng.Int63n(int64(s.around)))
	s.mu.Unlock()
	time.Sleep(d)
	req.Out.WriteString(msg)
	return nil
}

// TestSyncTimeoutRacesReply: thousands of synchronous calls on one
// connection whose replies arrive right around the deadline. Every call
// either returns its own payload or fails with TIMEOUT minor 1. A future
// re-pooled while its reply is still racing in would hand that reply to a
// later call, which fails the payload check at once.
func TestSyncTimeoutRacesReply(t *testing.T) {
	const (
		timeout = 2 * time.Millisecond
		callers = 16
		each    = 200
	)
	n := netsim.NewNetwork()
	server := New(Options{Transport: n.Host("server")})
	if err := server.Listen("server:9500"); err != nil {
		t.Fatal(err)
	}
	ref, err := server.Adapter().Activate("race", "IDL:test/Echo:1.0",
		&raceServant{rng: rand.New(rand.NewSource(16)), around: timeout})
	if err != nil {
		t.Fatal(err)
	}
	client := New(Options{Transport: n.Host("client"), RequestTimeout: timeout})
	t.Cleanup(func() {
		client.Shutdown()
		server.Shutdown()
	})

	var ok, timedOut [callers]int
	errs := make(chan error, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				want := fmt.Sprintf("caller-%02d-call-%04d", g, i)
				got, err := callEchoErr(client, ref, want)
				var sys *SystemException
				switch {
				case err == nil && got == want:
					ok[g]++
				case err == nil:
					errs <- fmt.Errorf("call %q returned another call's reply %q", want, got)
					return
				case errors.As(err, &sys) && sys.Name == ExcTimeout && sys.Minor == 1:
					timedOut[g]++
				default:
					errs <- fmt.Errorf("call %q: want its reply or TIMEOUT minor 1, got %v", want, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	var oks, timeouts int
	for g := range ok {
		oks += ok[g]
		timeouts += timedOut[g]
	}
	if oks == 0 || timeouts == 0 {
		t.Fatalf("%d replies, %d timeouts: the servant's jitter no longer straddles the deadline", oks, timeouts)
	}
	t.Logf("%d calls: %d replies in time, %d timeouts", callers*each, oks, timeouts)
}

// TestTeardownReachesSyncWaiter: a connection that dies under synchronous
// callers fails each of them exactly once, with COMM_FAILURE as an error
// (the form the asynchronous path always used — never an exceptional
// Outcome), returns their pipeline-window slots, and leaves every future
// either with the garbage collector or back in the pool only after its
// completer signed off.
func TestTeardownReachesSyncWaiter(t *testing.T) {
	wantCommFailure := func(t *testing.T, out *Outcome, err error) {
		t.Helper()
		var sys *SystemException
		if out != nil || !errors.As(err, &sys) || sys.Name != ExcCommFailure {
			t.Fatalf("want COMM_FAILURE as an error, got outcome %v, err %v", out, err)
		}
		if isNotSent(err) {
			t.Fatalf("a request that registered is not retry-safe, got %v", err)
		}
	}
	drained := func(t *testing.T, conn *clientConn) {
		t.Helper()
		if held := len(conn.window); held != 0 {
			t.Fatalf("dead connection still holds %d pipeline-window slot(s)", held)
		}
		if n := conn.inFlight.Load(); n != 0 {
			t.Fatalf("dead connection still counts %d in flight", n)
		}
	}

	t.Run("severed under blocked callers", func(t *testing.T) {
		const callers = 24
		w := newHangWorld(t, Options{RequestTimeout: time.Minute, PipelineDepth: callers})
		type result struct {
			out *Outcome
			err error
		}
		results := make(chan result, callers)
		for i := 0; i < callers; i++ {
			go func() {
				out, err := w.client.Invoke(context.Background(), w.invocation("hang"))
				results <- result{out, err}
			}()
		}
		conn, err := w.client.getConn(w.ref.Profile.Addr())
		if err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(5 * time.Second); conn.inFlight.Load() != callers; {
			if time.Now().After(deadline) {
				t.Fatalf("only %d of %d callers got registered", conn.inFlight.Load(), callers)
			}
			time.Sleep(time.Millisecond)
		}
		conn.mu.Lock()
		futs := make([]*Future, 0, callers)
		for _, f := range conn.pending {
			futs = append(futs, f)
		}
		conn.mu.Unlock()

		w.net.Crash("server")
		for i := 0; i < callers; i++ {
			select {
			case r := <-results:
				wantCommFailure(t, r.out, r.err)
			case <-time.After(5 * time.Second):
				t.Fatalf("caller %d still blocked on a dead connection", i)
			}
		}
		select {
		case r := <-results:
			t.Fatalf("a caller returned twice: %v / %v", r.out, r.err)
		default:
		}
		drained(t, conn)
		// Nothing else runs on this ORB, so a future that went back to the
		// pool is still there: it must have been settled first.
		for _, f := range futs {
			if st := f.state.Load(); st != futSettled {
				t.Fatalf("torn-down future left in state %d, want settled (%d)", st, futSettled)
			}
		}
	})

	t.Run("failing frame write", func(t *testing.T) {
		w := newWorld(t)
		addr := w.ref.Profile.Addr()
		conn := newClientConn(w.client, addr, writeFailConn{}, 0)
		conn.window = make(chan struct{}, 1)
		w.client.mu.Lock()
		w.client.conns[addr] = &connStripe{slots: []*clientConn{conn}}
		w.client.mu.Unlock()

		gets, _ := futurePoolStats()
		out, err := w.client.Invoke(context.Background(), echoInvocation(w.client, w.ref, "doomed", false))
		wantCommFailure(t, out, err)
		drained(t, conn)
		if after, _ := futurePoolStats(); after != gets+1 {
			t.Fatalf("the call drew %d futures, want 1", after-gets)
		}
		// The dead connection left the stripe: the next call dials the real
		// server and succeeds.
		if got, err := callEcho(t, w.client, w.ref, "recovered"); err != nil || got != "recovered" {
			t.Fatalf("call after the failed write: %q, %v", got, err)
		}
	})
}
