package orb

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"maqs/internal/cdr"
	"maqs/internal/giop"
	"maqs/internal/ior"
	"maqs/internal/netsim"
	"maqs/internal/obs"
)

// gateServant blocks its "block" operation on a gate channel so tests
// can pin a class's admitted requests deterministically, counting how
// many are blocked inside at once; "echo" and oneway "note" behave like
// echoServant.
type gateServant struct {
	gate    chan struct{}
	invoked atomic.Int64
	notes   atomic.Int64
	inside  atomic.Int64 // "block" calls inside the servant now
	peak    atomic.Int64 // the most there ever were at once
}

func (s *gateServant) Invoke(req *ServerRequest) error {
	s.invoked.Add(1)
	switch req.Operation {
	case "block":
		n := s.inside.Add(1)
		for p := s.peak.Load(); n > p && !s.peak.CompareAndSwap(p, n); p = s.peak.Load() {
		}
		<-s.gate
		s.inside.Add(-1)
		req.Out.WriteString("unblocked")
		return nil
	case "echo":
		msg, err := req.In().ReadString()
		if err != nil {
			return err
		}
		req.Out.WriteString(msg)
		return nil
	case "note":
		s.notes.Add(1)
		return nil
	default:
		return NewSystemException(ExcBadOperation, 2, "no such op %q", req.Operation)
	}
}

// dispatchWorld wires a bounded-dispatch server and a client over netsim.
func dispatchWorld(t *testing.T, servant Servant, opts Options) (*ORB, *ORB, *ior.IOR) {
	t.Helper()
	n := netsim.NewNetwork()
	opts.Transport = n.Host("server")
	server := New(opts)
	if err := server.Listen("server:9000"); err != nil {
		t.Fatal(err)
	}
	ref, err := server.Adapter().Activate("gate-1", "IDL:test/Gate:1.0", servant)
	if err != nil {
		t.Fatal(err)
	}
	client := New(Options{Transport: n.Host("client"), RequestTimeout: 5 * time.Second})
	t.Cleanup(func() {
		client.Shutdown()
		server.Shutdown()
	})
	return server, client, ref
}

// every is an AdmissionPolicy giving each class the same policy.
func every(p ClassPolicy) func(string) ClassPolicy {
	return func(string) ClassPolicy { return p }
}

// call invokes op with a short string argument and returns the decoded
// outcome error (nil on success).
func call(o *ORB, ref *ior.IOR, op string, oneway bool, ctxs giop.ServiceContextList) error {
	e := cdr.NewEncoder(o.Order())
	e.WriteString("x")
	out, err := o.Invoke(context.Background(), &Invocation{
		Target:           ref,
		Operation:        op,
		Args:             e.Bytes(),
		Contexts:         ctxs,
		ResponseExpected: !oneway,
		Order:            o.Order(),
	})
	if err != nil {
		return err
	}
	return out.Err()
}

// isShed reports whether err is the admission-control TRANSIENT.
func isShed(err error) bool {
	var exc *SystemException
	return errors.As(err, &exc) && exc.Name == ExcTransient && exc.Minor == 60
}

// qosTag crafts an SCQoS context list whose class decodes to name (the
// encapsulation's first string, matching qos.QoSTag's layout).
func qosTag(name string) giop.ServiceContextList {
	e := cdr.NewEncoder(cdr.BigEndian)
	end := e.BeginEncapsulation()
	e.WriteString(name)
	e.WriteString("binding-1")
	e.WriteString("")
	end()
	return giop.ServiceContextList{{ID: giop.SCQoS, Data: e.Bytes()}}
}

// TestDispatchBoundedEcho: a bounded pool serves plain concurrent load
// with no sheds — the bound changes scheduling, not semantics.
func TestDispatchBoundedEcho(t *testing.T) {
	servant := &gateServant{gate: make(chan struct{})}
	server, client, ref := dispatchWorld(t, servant, Options{AdmissionPolicy: every(ClassPolicy{Workers: 2, QueueDepth: 64})})
	_ = server
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- call(client, ref, "echo", false, nil)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("bounded echo failed: %v", err)
		}
	}
	if got := servant.invoked.Load(); got != 32 {
		t.Fatalf("servant saw %d invocations, want 32", got)
	}
}

// TestDispatchQueueOverflowShed: with the single worker pinned and the
// queue full, further requests are shed immediately with TRANSIENT and
// counted on the admission metrics.
func TestDispatchQueueOverflowShed(t *testing.T) {
	servant := &gateServant{gate: make(chan struct{})}
	bundle := obs.New()
	server, client, ref := dispatchWorld(t, servant, Options{
		AdmissionPolicy: every(ClassPolicy{Workers: 1, QueueDepth: 1}),
		Observability:   bundle,
	})
	_ = server

	// Pin the worker, then fill the one queue slot.
	blocked := make(chan error, 1)
	go func() { blocked <- call(client, ref, "block", false, nil) }()
	waitFor(t, func() bool { return servant.invoked.Load() == 1 })
	queued := make(chan error, 1)
	go func() { queued <- call(client, ref, "echo", false, nil) }()
	// No queue-length probe exists, so give the echo a beat to land in
	// the single slot before asserting overflow behaviour.
	time.Sleep(30 * time.Millisecond)

	// Queue full now: the next calls must shed, not wait.
	for i := 0; i < 3; i++ {
		err := call(client, ref, "echo", false, nil)
		if !isShed(err) {
			t.Fatalf("overflow call %d: got %v, want admission TRANSIENT", i, err)
		}
	}
	if got := bundle.Registry.Counter("maqs_server_shed_total").Value(); got != 3 {
		t.Fatalf("shed total = %d, want 3", got)
	}
	if got := bundle.Registry.Counter(`maqs_server_shed_total{class="none",reason="queue-full"}`).Value(); got != 3 {
		t.Fatalf("labeled shed counter = %d, want 3", got)
	}

	close(servant.gate)
	if err := <-blocked; err != nil {
		t.Fatalf("blocked call: %v", err)
	}
	if err := <-queued; err != nil {
		t.Fatalf("queued call: %v", err)
	}
	if got := bundle.Registry.Counter("maqs_server_admitted_total").Value(); got < 2 {
		t.Fatalf("admitted total = %d, want >= 2", got)
	}
}

// TestDispatchDeadlineShed: requests that outwait their dispatch budget
// in the queue are shed at dequeue instead of dispatched.
func TestDispatchDeadlineShed(t *testing.T) {
	servant := &gateServant{gate: make(chan struct{})}
	bundle := obs.New()
	server, client, ref := dispatchWorld(t, servant, Options{
		AdmissionPolicy: every(ClassPolicy{Workers: 1, QueueDepth: 8, Deadline: 30 * time.Millisecond}),
		Observability:   bundle,
	})
	_ = server

	blocked := make(chan error, 1)
	go func() { blocked <- call(client, ref, "block", false, nil) }()
	waitFor(t, func() bool { return servant.invoked.Load() == 1 })

	// These queue behind the pinned worker and age past the deadline.
	stale := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func() { stale <- call(client, ref, "echo", false, nil) }()
	}
	time.Sleep(80 * time.Millisecond)
	close(servant.gate)

	if err := <-blocked; err != nil {
		t.Fatalf("blocked call: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := <-stale; !isShed(err) {
			t.Fatalf("stale call %d: got %v, want admission TRANSIENT", i, err)
		}
	}
	if got := bundle.Registry.Counter(`maqs_server_shed_total{class="none",reason="deadline"}`).Value(); got != 3 {
		t.Fatalf("deadline shed counter = %d, want 3", got)
	}
	if got := servant.invoked.Load(); got != 1 {
		t.Fatalf("servant saw %d invocations, want only the blocked one", got)
	}
}

// TestDispatchOnewayShed: shed oneway requests are dropped silently (no
// reply frame) but still counted.
func TestDispatchOnewayShed(t *testing.T) {
	servant := &gateServant{gate: make(chan struct{})}
	bundle := obs.New()
	server, client, ref := dispatchWorld(t, servant, Options{
		AdmissionPolicy: every(ClassPolicy{Workers: 1, QueueDepth: 1}),
		Observability:   bundle,
	})
	_ = server

	blocked := make(chan error, 1)
	go func() { blocked <- call(client, ref, "block", false, nil) }()
	waitFor(t, func() bool { return servant.invoked.Load() == 1 })
	// Fill the queue slot, then shed oneways against the full queue.
	queued := make(chan error, 1)
	go func() { queued <- call(client, ref, "echo", false, nil) }()
	time.Sleep(20 * time.Millisecond)

	for i := 0; i < 4; i++ {
		if err := call(client, ref, "note", true, nil); err != nil {
			t.Fatalf("oneway send %d: %v", i, err)
		}
	}
	waitFor(t, func() bool { return bundle.Registry.Counter("maqs_server_shed_total").Value() >= 4 })

	close(servant.gate)
	if err := <-blocked; err != nil {
		t.Fatalf("blocked call: %v", err)
	}
	if err := <-queued; err != nil {
		t.Fatalf("queued call: %v", err)
	}
	if got := servant.notes.Load(); got != 0 {
		t.Fatalf("servant processed %d shed oneways, want 0", got)
	}
}

// TestDispatchClassIsolation: one class's pinned worker must not stall
// another class's lane — per-class queues are the whole point.
func TestDispatchClassIsolation(t *testing.T) {
	servant := &gateServant{gate: make(chan struct{})}
	server, client, ref := dispatchWorld(t, servant, Options{
		AdmissionPolicy: every(ClassPolicy{Workers: 1, QueueDepth: 4}),
	})
	_ = server

	blocked := make(chan error, 1)
	go func() { blocked <- call(client, ref, "block", false, qosTag("Gold")) }()
	waitFor(t, func() bool { return servant.invoked.Load() == 1 })

	// Untagged traffic rides the "none" lane and keeps flowing.
	done := make(chan error, 1)
	go func() { done <- call(client, ref, "echo", false, nil) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("isolated echo failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("echo on class none stalled behind class Gold's pinned worker")
	}
	close(servant.gate)
	if err := <-blocked; err != nil {
		t.Fatalf("blocked call: %v", err)
	}
}

// TestDispatchPolicyOverride: the policy applies per class, and a class
// granted no workers stays unbounded beside a bounded one — the exemption
// of a control-plane class that docs/ADMISSION.md describes.
func TestDispatchPolicyOverride(t *testing.T) {
	servant := &gateServant{gate: make(chan struct{})}
	bundle := obs.New()
	server, client, ref := dispatchWorld(t, servant, Options{
		Observability: bundle,
		AdmissionPolicy: func(class string) ClassPolicy {
			if class == "Gold" {
				return ClassPolicy{Workers: 1, QueueDepth: 64}
			}
			return ClassPolicy{Workers: 0} // "none": exempt
		},
	})
	_ = server

	// Pin Gold's single worker, then pile more Gold requests behind it:
	// they wait at the gate, and none shed at depth 64.
	blocked := make(chan error, 1)
	go func() { blocked <- call(client, ref, "block", false, qosTag("Gold")) }()
	waitFor(t, func() bool { return servant.invoked.Load() == 1 })
	queued := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() { queued <- call(client, ref, "echo", false, qosTag("Gold")) }()
	}
	time.Sleep(30 * time.Millisecond)
	if got := bundle.Registry.Counter("maqs_server_shed_total").Value(); got != 0 {
		t.Fatalf("gold lane shed %d requests despite queue depth 64", got)
	}
	if got := servant.invoked.Load(); got != 1 {
		t.Fatalf("servant saw %d invocations with Gold's one worker pinned, want 1", got)
	}

	// Untagged traffic is exempt: 8 blocking calls are all inside at once.
	free := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() { free <- call(client, ref, "block", false, nil) }()
	}
	waitFor(t, func() bool { return servant.inside.Load() == 1+8 })

	close(servant.gate)
	if err := <-blocked; err != nil {
		t.Fatalf("blocked call: %v", err)
	}
	for i := 0; i < 8; i++ {
		if err := <-queued; err != nil {
			t.Fatalf("queued gold call %d: %v", i, err)
		}
		if err := <-free; err != nil {
			t.Fatalf("untagged call %d: %v", i, err)
		}
	}
}

// TestDispatchGateBounds: a gate of 2 workers and depth 4 lets at most 2
// requests into the servant and admits 6 in all; the rest of a 64-call
// burst is shed in the read loop, before it gets a goroutine. Once the
// gate opens and the ORBs shut down, no goroutine is left behind.
func TestDispatchGateBounds(t *testing.T) {
	const workers, depth, burst = 2, 4, 64
	idle := runtime.NumGoroutine()
	servant := &gateServant{gate: make(chan struct{})}
	bundle := obs.New()
	server, client, ref := dispatchWorld(t, servant, Options{
		AdmissionPolicy: every(ClassPolicy{Workers: workers, QueueDepth: depth}),
		Observability:   bundle,
	})
	unpin := sync.OnceFunc(func() { close(servant.gate) })
	t.Cleanup(unpin) // before the shutdown, which waits for pinned calls
	// Warm the connection first, so its read loops are in the baseline.
	if err := call(client, ref, "echo", false, nil); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()

	errs := make(chan error, burst)
	for i := 0; i < burst; i++ {
		go func() { errs <- call(client, ref, "block", false, nil) }()
	}
	// The sheds come back while the admitted calls are still pinned.
	for i := 0; i < burst-workers-depth; i++ {
		if err := <-errs; !isShed(err) {
			t.Fatalf("burst call: got %v, want admission TRANSIENT", err)
		}
	}
	if got := bundle.Registry.Counter(`maqs_server_shed_total{class="none",reason="queue-full"}`).Value(); got != burst-workers-depth {
		t.Fatalf("queue-full sheds = %d, want %d", got, burst-workers-depth)
	}
	// Each admitted request holds one server goroutine, and its caller one
	// client goroutine awaiting the reply; the constant 2 covers shed
	// callers not yet exited. Without the gate, the 58 would be parked too.
	const exiting = 2
	settleGoroutines(t, "during the burst", base+2*(workers+depth)+exiting)
	waitFor(t, func() bool { return servant.inside.Load() == workers })

	unpin()
	for i := 0; i < workers+depth; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("admitted call: %v", err)
		}
	}
	if got := servant.peak.Load(); got > workers {
		t.Fatalf("servant saw %d concurrent calls, want ≤ %d", got, workers)
	}
	client.Shutdown()
	server.Shutdown()
	settleGoroutines(t, "after shutdown", idle)
}

// settleGoroutines waits up to 2s for the process to run at most limit
// goroutines.
func settleGoroutines(t *testing.T, when string, limit int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for n := runtime.NumGoroutine(); n > limit; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines %s, want ≤ %d", n, when, limit)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestDispatchShutdownDrains: Shutdown must wait for queued requests to
// be handled (or shed) — never leak or deadlock them.
func TestDispatchShutdownDrains(t *testing.T) {
	servant := &gateServant{gate: make(chan struct{})}
	n := netsim.NewNetwork()
	server := New(Options{Transport: n.Host("server"), AdmissionPolicy: every(ClassPolicy{Workers: 1, QueueDepth: 8})})
	if err := server.Listen("server:9000"); err != nil {
		t.Fatal(err)
	}
	ref, err := server.Adapter().Activate("gate-1", "IDL:test/Gate:1.0", servant)
	if err != nil {
		t.Fatal(err)
	}
	client := New(Options{Transport: n.Host("client"), RequestTimeout: 2 * time.Second})
	defer client.Shutdown()

	go func() { _ = call(client, ref, "block", false, nil) }()
	waitFor(t, func() bool { return servant.invoked.Load() == 1 })
	for i := 0; i < 4; i++ {
		go func() { _ = call(client, ref, "echo", false, nil) }()
	}
	// Give the echoes time to enqueue behind the pinned worker.
	time.Sleep(50 * time.Millisecond)

	go func() {
		time.Sleep(50 * time.Millisecond)
		close(servant.gate)
	}()
	done := make(chan struct{})
	go func() {
		server.Shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not drain the requests waiting at the gate")
	}
	if got := servant.invoked.Load(); got != 5 {
		t.Fatalf("servant saw %d invocations after drain, want 5", got)
	}
}

// TestChaosShedStorm is the shed-path chaos case (part of `make chaos`):
// a hard overload burst against a tiny lane must shed fast with
// TRANSIENT for every victim, count every shed, and freeze an
// overload-shed flight dump — and the server must come out serving.
func TestChaosShedStorm(t *testing.T) {
	servant := &gateServant{gate: make(chan struct{})}
	bundle := obs.New()
	bundle.Flight.SetDumpCooldown(0)
	server, client, ref := dispatchWorld(t, servant, Options{
		AdmissionPolicy: every(ClassPolicy{Workers: 1, QueueDepth: 1}),
		Observability:   bundle,
	})
	_ = server

	blocked := make(chan error, 1)
	go func() { blocked <- call(client, ref, "block", false, nil) }()
	waitFor(t, func() bool { return servant.invoked.Load() == 1 })
	queued := make(chan error, 1)
	go func() { queued <- call(client, ref, "echo", false, nil) }()
	time.Sleep(20 * time.Millisecond)

	const storm = 64
	var wg sync.WaitGroup
	var sheds atomic.Int64
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if isShed(call(client, ref, "echo", false, nil)) {
				sheds.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := sheds.Load(); got < storm-8 {
		t.Fatalf("storm shed %d/%d requests; expected nearly all", got, storm)
	}
	if got := bundle.Registry.Counter("maqs_server_shed_total").Value(); got < uint64(sheds.Load()) {
		t.Fatalf("shed counter %d below observed sheds %d", got, sheds.Load())
	}
	foundDump := false
	for _, d := range bundle.Flight.Dumps() {
		if d.Kind == obs.AnomalyOverloadShed {
			foundDump = true
		}
	}
	if !foundDump {
		t.Fatalf("no %s flight dump after %d sheds", obs.AnomalyOverloadShed, sheds.Load())
	}

	// Recovery: release the gate; the lane serves again.
	close(servant.gate)
	if err := <-blocked; err != nil {
		t.Fatalf("blocked call: %v", err)
	}
	if err := <-queued; err != nil {
		t.Fatalf("queued call: %v", err)
	}
	if err := call(client, ref, "echo", false, nil); err != nil {
		t.Fatalf("post-storm echo: %v", err)
	}
}

// waitFor polls cond for up to 2s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached within 2s")
}

// retainingFilter breaks the ServerRequest ownership rule on purpose: it
// keeps the request's own slices instead of copies.
type retainingFilter struct {
	key, args, ctx []byte
}

func (f *retainingFilter) Inbound(req *ServerRequest) error {
	f.key, f.args = req.ObjectKey, req.Args
	f.ctx, _ = req.Contexts.Get(giop.SCQoS)
	return nil
}

func (f *retainingFilter) Outbound(_ *ServerRequest, _ giop.ReplyStatus, body []byte) ([]byte, error) {
	return body, nil
}

// TestReleasedRequestIsPoisoned: with the poison hook on (it is for every
// test under -race, which is how the qos integration and chaos suites replay
// against it), whatever outlives a request reads 0xDB where its object key,
// arguments and context payloads were — so a retainer fails loudly instead
// of reading the next request's bytes now and then.
func TestReleasedRequestIsPoisoned(t *testing.T) {
	defer func(was bool) { poisonReleased = was }(poisonReleased)
	poisonReleased = true

	w := newWorld(t)
	f := &retainingFilter{}
	w.server.AddIncomingFilter(f)
	inv := echoInvocation(w.client, w.ref, "kept too long", false)
	inv.SetQoSTag(QoSTag{Characteristic: "Null", BindingID: "b"}.Encoded())
	if out, err := w.client.Invoke(context.Background(), inv); err != nil || out.Err() != nil {
		t.Fatalf("echo: %v, %v", out, err)
	}
	// Shutdown returns once every connection's handlers have finished, and
	// a handler finishes by releasing its job.
	w.client.Shutdown()
	w.server.Shutdown()
	for what, kept := range map[string][]byte{"object key": f.key, "arguments": f.args, "SCQoS payload": f.ctx} {
		if len(kept) == 0 || bytes.Count(kept, []byte{0xDB}) != len(kept) {
			t.Errorf("retained %s reads %q after release", what, kept)
		}
	}
}
