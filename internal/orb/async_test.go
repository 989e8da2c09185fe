package orb

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"maqs/internal/cdr"
	"maqs/internal/ior"
	"maqs/internal/netsim"
	"maqs/internal/obs"
)

func TestInvokeAsyncEcho(t *testing.T) {
	w := newWorld(t)
	fut, err := w.client.InvokeAsync(context.Background(), echoInvocation(w.client, w.ref, "hello", false))
	if err != nil {
		t.Fatal(err)
	}
	out, err := fut.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Err(); err != nil {
		t.Fatal(err)
	}
	got, err := out.Decoder().ReadString()
	if err != nil {
		t.Fatal(err)
	}
	if got != "hello" {
		t.Fatalf("echo = %q", got)
	}
}

// jitterEcho echoes its string argument after a payload-derived delay, so
// replies pipelined on one connection complete out of order.
type jitterEcho struct{}

func (jitterEcho) Invoke(req *ServerRequest) error {
	msg, err := req.In().ReadString()
	if err != nil {
		return err
	}
	var h uint32
	for _, c := range []byte(msg) {
		h = h*31 + uint32(c)
	}
	time.Sleep(time.Duration(h%8) * time.Millisecond)
	req.Out.WriteString(msg)
	return nil
}

// TestPipelinedOutOfOrderReplies keeps 512 concurrent requests in flight
// on a single connection (one stripe slot) while the servant scrambles
// completion order; every future must resolve to its own payload.
func TestPipelinedOutOfOrderReplies(t *testing.T) {
	n := netsim.NewNetwork()
	n.Seed(1)
	n.SetDefaultLink(netsim.Link{Latency: 100 * time.Microsecond, Jitter: 400 * time.Microsecond})
	server := New(Options{Transport: n.Host("server")})
	if err := server.Listen("server:9300"); err != nil {
		t.Fatal(err)
	}
	ref, err := server.Adapter().Activate("jitter", "IDL:test/Jitter:1.0", jitterEcho{})
	if err != nil {
		t.Fatal(err)
	}
	client := New(Options{Transport: n.Host("client"), ConnsPerEndpoint: 1, PipelineDepth: 512})
	t.Cleanup(func() {
		client.Shutdown()
		server.Shutdown()
	})

	const calls = 512
	ctx := context.Background()
	futs := make([]*Future, calls)
	for i := range futs {
		fut, err := client.InvokeAsync(ctx, echoInvocation(client, ref, fmt.Sprintf("req-%04d", i), false))
		if err != nil {
			t.Fatalf("dispatch %d: %v", i, err)
		}
		futs[i] = fut
	}
	for i, fut := range futs {
		out, err := fut.Wait(ctx)
		if err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
		if err := out.Err(); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		got, err := out.Decoder().ReadString()
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if want := fmt.Sprintf("req-%04d", i); got != want {
			t.Fatalf("reply %d mismatched: got %q want %q", i, got, want)
		}
	}
}

// TestConnTeardownFailsPendingFutures crashes the server host while a
// window of slow calls is in flight: every pending future must resolve
// promptly with a transport error — no Wait may hang on a dead
// connection.
func TestConnTeardownFailsPendingFutures(t *testing.T) {
	n := netsim.NewNetwork()
	n.Seed(7)
	server := New(Options{Transport: n.Host("server")})
	if err := server.Listen("server:9301"); err != nil {
		t.Fatal(err)
	}
	servant := &echoServant{}
	ref, err := server.Adapter().Activate("echo", "IDL:test/Echo:1.0", servant)
	if err != nil {
		t.Fatal(err)
	}
	client := New(Options{Transport: n.Host("client"), PipelineDepth: 64})
	t.Cleanup(func() {
		client.Shutdown()
		server.Shutdown()
	})

	ctx := context.Background()
	const calls = 32
	futs := make([]*Future, calls)
	for i := range futs {
		e := cdr.NewEncoder(client.Order())
		e.WriteString("take your time")
		fut, err := client.InvokeAsync(ctx, &Invocation{
			Target: ref, Operation: "slow", Args: e.Bytes(),
			ResponseExpected: true, Order: client.Order(),
		})
		if err != nil {
			t.Fatalf("dispatch %d: %v", i, err)
		}
		futs[i] = fut
	}
	n.Crash("server")

	deadline := time.Now().Add(5 * time.Second)
	for i, fut := range futs {
		waitCtx, cancel := context.WithDeadline(ctx, deadline)
		_, err := fut.Wait(waitCtx)
		cancel()
		if err == nil {
			t.Fatalf("future %d resolved without error after crash", i)
		}
		var sysErr *SystemException
		if !errors.As(err, &sysErr) || sysErr.Name != ExcCommFailure {
			t.Fatalf("future %d: want COMM_FAILURE, got %v", i, err)
		}
	}
	if time.Now().After(deadline) {
		t.Fatal("pending futures were not failed promptly")
	}
}

// TestRegisterOnDeadConnReturnsWindowSlot exercises the admission error
// path: once the connection's sticky error is set, send must fail fast,
// return its window slot, and leave the window empty.
func TestRegisterOnDeadConnReturnsWindowSlot(t *testing.T) {
	w := newWorld(t)
	// A first call materialises the pooled connection.
	if _, err := callEcho(t, w.client, w.ref, "warm"); err != nil {
		t.Fatal(err)
	}
	conn, err := w.client.getConn(w.ref.Profile.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn.window = make(chan struct{}, 1)
	conn.close(NewSystemException(ExcCommFailure, 99, "induced teardown"))

	inv := echoInvocation(w.client, w.ref, "x", false)
	fut := acquireFuture(inv)
	if _, err := conn.send(context.Background(), inv, fut); err == nil {
		t.Fatal("send on a dead connection succeeded")
	} else if !isNotSent(err) {
		t.Fatalf("want NotSentError, got %v", err)
	} else if fut.conn != nil {
		t.Fatal("a dead-connection send must not register its future")
	}
	if got := len(conn.window); got != 0 {
		t.Fatalf("window slot leaked: %d held after failed register", got)
	}
	// The pool must have dropped the dead connection: the next call dials
	// fresh and succeeds.
	if got, err := callEcho(t, w.client, w.ref, "recovered"); err != nil || got != "recovered" {
		t.Fatalf("reconnect after teardown: %q, %v", got, err)
	}
}

// writeFailConn is a net.Conn whose writes always fail, driving the
// registered-then-write-failed send path deterministically.
type writeFailConn struct{}

func (writeFailConn) Read(p []byte) (int, error)       { return 0, io.EOF }
func (writeFailConn) Write(p []byte) (int, error)      { return 0, errors.New("induced write failure") }
func (writeFailConn) Close() error                     { return nil }
func (writeFailConn) LocalAddr() net.Addr              { return nil }
func (writeFailConn) RemoteAddr() net.Addr             { return nil }
func (writeFailConn) SetDeadline(time.Time) error      { return nil }
func (writeFailConn) SetReadDeadline(time.Time) error  { return nil }
func (writeFailConn) SetWriteDeadline(time.Time) error { return nil }

// TestSendWriteErrorLeavesFutureToCloser pins the registered-write-error
// contract: when the frame write fails after the request entered the
// pending map, the connection teardown completes the future with the
// COMM_FAILURE cause, send itself reports nothing (the failure is the
// future's to deliver, exactly once), and the failure is NOT retry-safe
// (the request may have partially left the process). The sender must not
// pool the future on this path — a racing closer may still hold the
// reference.
func TestSendWriteErrorLeavesFutureToCloser(t *testing.T) {
	w := newWorld(t)
	conn := newClientConn(w.client, "deadwrite:1", writeFailConn{}, 0)
	conn.window = make(chan struct{}, 4)

	inv := echoInvocation(w.client, w.ref, "doomed", false)
	fut := acquireFuture(inv)

	if _, err := conn.send(context.Background(), inv, fut); err != nil {
		t.Fatalf("a registered request's write failure belongs to its future, send returned %v", err)
	}
	if fut.conn != conn {
		t.Fatal("the request entered the pending map before the write failed: want it registered")
	}
	// Teardown owned completion: the future already resolved with the
	// sticky cause, so Wait cannot hang and the waiter sees the failure.
	if fut.state.Load() != futSettled {
		t.Fatal("future not completed by connection teardown")
	}
	var sysErr *SystemException
	if _, werr := fut.Wait(context.Background()); !errors.As(werr, &sysErr) || sysErr.Name != ExcCommFailure {
		t.Fatalf("want COMM_FAILURE through the future, got %v", werr)
	} else if isNotSent(werr) {
		t.Fatalf("registered write failure must not be retry-safe, got %v", werr)
	}
	// The teardown returned the drained registration's window slot.
	if got := len(conn.window); got != 0 {
		t.Fatalf("window slot leaked: %d held after teardown", got)
	}
}

// TestInvokeAsyncDispatchFailureFlightRecorded: a direct asynchronous call
// that fails before it registers — its endpoint refuses the connection —
// leaves one flight record of the failure, as the synchronous call does.
func TestInvokeAsyncDispatchFailureFlightRecorded(t *testing.T) {
	bundle := obs.New()
	client := New(Options{Transport: netsim.NewNetwork().Host("client"), Observability: bundle})
	t.Cleanup(client.Shutdown)
	ref := ior.New("IDL:test/Echo:1.0", "nobody", 1, []byte("echo"))
	ctx := context.Background()
	if _, err := client.Invoke(ctx, echoInvocation(client, ref, "sync", false)); err == nil {
		t.Fatal("Invoke on a refused endpoint succeeded")
	}
	if fut, err := client.InvokeAsync(ctx, echoInvocation(client, ref, "async", false)); err == nil {
		fut.Wait(ctx)
		t.Fatal("InvokeAsync on a refused endpoint registered")
	}
	recs := bundle.Flight.Records(0)
	if len(recs) != 2 {
		t.Fatalf("%d flight records for a failed Invoke and a failed InvokeAsync, want 2: %+v", len(recs), recs)
	}
	if sync, async := recs[0], recs[1]; sync.Outcome == "ok" ||
		async.Outcome != sync.Outcome || async.Attempts != sync.Attempts || async.Endpoint != sync.Endpoint {
		t.Fatalf("async dispatch failure recorded as %+v, want it like the synchronous %+v", async, sync)
	}
}

// TestInvokeAsyncAfterCrashContract exercises the InvokeAsync error
// contract end to end against a crashed server: every dispatch either
// fails immediately with a retry-safe NotSentError (it never registered)
// or returns a future that resolves to a system exception — never an
// unresolvable future, never a non-retry-safe error return.
func TestInvokeAsyncAfterCrashContract(t *testing.T) {
	n := netsim.NewNetwork()
	n.Seed(11)
	server := New(Options{Transport: n.Host("server")})
	if err := server.Listen("server:9303"); err != nil {
		t.Fatal(err)
	}
	ref, err := server.Adapter().Activate("echo", "IDL:test/Echo:1.0", &echoServant{})
	if err != nil {
		t.Fatal(err)
	}
	client := New(Options{Transport: n.Host("client"), PipelineDepth: 8})
	t.Cleanup(func() {
		client.Shutdown()
		server.Shutdown()
	})

	ctx := context.Background()
	// Materialise the connection, then pull the rug.
	if _, err := callEcho(t, client, ref, "warm"); err != nil {
		t.Fatal(err)
	}
	n.Crash("server")

	for i := 0; i < 16; i++ {
		fut, err := client.InvokeAsync(ctx, echoInvocation(client, ref, "after-crash", false))
		if err != nil {
			if !isNotSent(err) {
				t.Fatalf("dispatch %d: immediate error must be retry-safe, got %v", i, err)
			}
			continue
		}
		waitCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
		_, werr := fut.Wait(waitCtx)
		cancel()
		if werr == nil {
			t.Fatalf("dispatch %d resolved without error after crash", i)
		}
		var sysErr *SystemException
		if !errors.As(werr, &sysErr) {
			t.Fatalf("dispatch %d: want a system exception through the future, got %v", i, werr)
		}
	}
}

// TestPipelineWindowBackpressure fills a depth-2 window with slow calls;
// a third dispatch must block until its context deadline and fail with
// the window-full timeout, without disturbing the in-flight pair.
func TestPipelineWindowBackpressure(t *testing.T) {
	n := netsim.NewNetwork()
	server := New(Options{Transport: n.Host("server")})
	if err := server.Listen("server:9302"); err != nil {
		t.Fatal(err)
	}
	servant := &echoServant{}
	ref, err := server.Adapter().Activate("echo", "IDL:test/Echo:1.0", servant)
	if err != nil {
		t.Fatal(err)
	}
	client := New(Options{Transport: n.Host("client"), PipelineDepth: 2})
	t.Cleanup(func() {
		client.Shutdown()
		server.Shutdown()
	})

	ctx := context.Background()
	slow := func() *Invocation {
		e := cdr.NewEncoder(client.Order())
		e.WriteString("busy")
		return &Invocation{
			Target: ref, Operation: "slow", Args: e.Bytes(),
			ResponseExpected: true, Order: client.Order(),
		}
	}
	first, err := client.InvokeAsync(ctx, slow())
	if err != nil {
		t.Fatal(err)
	}
	second, err := client.InvokeAsync(ctx, slow())
	if err != nil {
		t.Fatal(err)
	}

	blockedCtx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if _, err := client.InvokeAsync(blockedCtx, slow()); err == nil {
		t.Fatal("third dispatch fit into a depth-2 window")
	} else if !isNotSent(err) {
		t.Fatalf("window-full failure must be retry-safe, got %v", err)
	}

	for i, fut := range []*Future{first, second} {
		out, err := fut.Wait(ctx)
		if err != nil {
			t.Fatalf("in-flight call %d: %v", i, err)
		}
		if err := out.Err(); err != nil {
			t.Fatalf("in-flight call %d: %v", i, err)
		}
	}
}

// TestPipelineWindowHonorsRequestTimeout dispatches with a deadline-less
// context into a full depth-1 window while the server stalls: the stored
// RequestTimeout must bound the window wait, so InvokeAsync fails with a
// retry-safe timeout instead of hanging until a slot frees.
func TestPipelineWindowHonorsRequestTimeout(t *testing.T) {
	n := netsim.NewNetwork()
	server := New(Options{Transport: n.Host("server")})
	if err := server.Listen("server:9305"); err != nil {
		t.Fatal(err)
	}
	ref, err := server.Adapter().Activate("echo", "IDL:test/Echo:1.0", &echoServant{})
	if err != nil {
		t.Fatal(err)
	}
	client := New(Options{
		Transport: n.Host("client"), PipelineDepth: 1,
		RequestTimeout: 60 * time.Millisecond,
	})
	t.Cleanup(func() {
		client.Shutdown()
		server.Shutdown()
	})

	ctx := context.Background()
	slow := func() *Invocation {
		e := cdr.NewEncoder(client.Order())
		e.WriteString("busy")
		return &Invocation{
			Target: ref, Operation: "slow", Args: e.Bytes(),
			ResponseExpected: true, Order: client.Order(),
		}
	}
	first, err := client.InvokeAsync(ctx, slow())
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := client.InvokeAsync(ctx, slow()); err == nil {
		t.Fatal("second dispatch fit into a full depth-1 window")
	} else if !isNotSent(err) {
		t.Fatalf("window-timeout failure must be retry-safe, got %v", err)
	} else {
		var sysErr *SystemException
		if !errors.As(err, &sysErr) || sysErr.Name != ExcTimeout {
			t.Fatalf("want TIMEOUT, got %v", err)
		}
	}
	// The server's slow op runs 200ms; failing well before that proves the
	// RequestTimeout, not the freed slot, unblocked the dispatch.
	if waited := time.Since(start); waited > 150*time.Millisecond {
		t.Fatalf("window wait ran %v, past the configured RequestTimeout", waited)
	}
	// An explicit Wait deadline overrides the stored RequestTimeout (which
	// would otherwise expire before the 200ms slow reply arrives).
	waitCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if out, err := first.Wait(waitCtx); err != nil {
		t.Fatalf("in-flight call: %v", err)
	} else if err := out.Err(); err != nil {
		t.Fatalf("in-flight call: %v", err)
	}
}

// TestAsyncWaitDeadlineAbandons bounds Wait by the caller's deadline; the
// abandoned call must not poison the connection for later traffic.
func TestAsyncWaitDeadlineAbandons(t *testing.T) {
	w := newWorld(t)
	e := cdr.NewEncoder(w.client.Order())
	e.WriteString("later")
	fut, err := w.client.InvokeAsync(context.Background(), &Invocation{
		Target: w.ref, Operation: "slow", Args: e.Bytes(),
		ResponseExpected: true, Order: w.client.Order(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := fut.Wait(ctx); err == nil {
		t.Fatal("Wait outlived its deadline")
	} else {
		var sysErr *SystemException
		if !errors.As(err, &sysErr) || sysErr.Name != ExcTimeout {
			t.Fatalf("want TIMEOUT, got %v", err)
		}
	}
	// The connection must still serve the next call.
	if got, err := callEcho(t, w.client, w.ref, "still alive"); err != nil || got != "still alive" {
		t.Fatalf("call after abandoned wait: %q, %v", got, err)
	}
}
