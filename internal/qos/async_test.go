package qos

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"maqs/internal/ior"
	"maqs/internal/netsim"
	"maqs/internal/orb"
)

// TestCallAsyncFeedsObservers verifies the asynchronous stub path keeps
// the monitoring contract of Call: the installed observers see the
// completed invocation (operation, RTT, class) once the future resolves.
func TestCallAsyncFeedsObservers(t *testing.T) {
	w := newQoSWorld(t, 0)
	var mu sync.Mutex
	var seen []Observation
	w.stub.AddObserver(func(o Observation) {
		mu.Lock()
		seen = append(seen, o)
		mu.Unlock()
	})

	ctx := context.Background()
	fut, err := w.stub.CallAsync(ctx, "inc", nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := fut.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Err(); err != nil {
		t.Fatal(err)
	}
	if v, err := out.Decoder().ReadLong(); err != nil || v != 1 {
		t.Fatalf("inc = %d, %v", v, err)
	}

	// The observer runs on the completing goroutine before the future's
	// result is published, so it has fired by the time Wait returns.
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 1 {
		t.Fatalf("observers saw %d observations, want 1", len(seen))
	}
	o := seen[0]
	if o.Operation != "inc" || o.Err != nil || o.RTT <= 0 {
		t.Fatalf("observation = %+v", o)
	}
}

// TestCallAsyncDispatchFailureObserved: a pipelined call that fails before
// it registers — its endpoint refuses the connection — reaches the
// observers once, as Call's failure does, and not only as CallAsync's error.
func TestCallAsyncDispatchFailureObserved(t *testing.T) {
	client := orb.New(orb.Options{Transport: netsim.NewNetwork().Host("client")})
	t.Cleanup(client.Shutdown)
	stub := NewStub(client, ior.New("IDL:test/Counter:1.0", "nobody", 1, []byte("counter")))
	var seen []Observation
	stub.AddObserver(func(o Observation) { seen = append(seen, o) })
	ctx := context.Background()
	if _, err := stub.Call(ctx, "inc", nil); err == nil {
		t.Fatal("Call on a refused endpoint succeeded")
	}
	if fut, err := stub.CallAsync(ctx, "inc", nil); err == nil {
		fut.Wait(ctx)
		t.Fatal("CallAsync on a refused endpoint registered")
	}
	if len(seen) != 2 {
		t.Fatalf("observers saw %d observations of a failed Call and a failed CallAsync, want 2", len(seen))
	}
	for i, o := range seen {
		if o.Operation != "inc" || o.Err == nil {
			t.Fatalf("observation %d = %+v, want a failed inc", i, o)
		}
	}
}

// TestCallAsyncMediated routes the asynchronous call through a negotiated
// binding: the mediator's Pre/PostInvoke bracket must run exactly as on
// the synchronous path, and the observation carries the characteristic.
func TestCallAsyncMediated(t *testing.T) {
	w := newQoSWorld(t, 0)
	ctx := context.Background()
	if _, err := w.stub.Negotiate(ctx, &Proposal{Characteristic: "Tracing"}); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var seen []Observation
	w.stub.AddObserver(func(o Observation) {
		mu.Lock()
		seen = append(seen, o)
		mu.Unlock()
	})

	fut, err := w.stub.CallAsync(ctx, "inc", nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := fut.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Err(); err != nil {
		t.Fatal(err)
	}

	w.mediator.mu.Lock()
	pres, posts := w.mediator.pres, w.mediator.posts
	w.mediator.mu.Unlock()
	if pres != 1 || posts != 1 {
		t.Fatalf("mediator bracket: %d pre, %d post (want 1/1)", pres, posts)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 1 || seen[0].Characteristic != "Tracing" {
		t.Fatalf("observations = %+v", seen)
	}
}

// TestCallAsyncManyInterleaved drives concurrent async calls from several
// goroutines through one stub; every reply must decode to a distinct
// counter value.
func TestCallAsyncManyInterleaved(t *testing.T) {
	w := newQoSWorld(t, 0)
	ctx := context.Background()
	const calls = 64
	var mu sync.Mutex
	values := make(map[int32]bool)
	var wg sync.WaitGroup
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fut, err := w.stub.CallAsync(ctx, "inc", nil)
			if err != nil {
				errs <- err
				return
			}
			out, err := fut.Wait(ctx)
			if err != nil {
				errs <- err
				return
			}
			if err := out.Err(); err != nil {
				errs <- err
				return
			}
			v, err := out.Decoder().ReadLong()
			if err != nil {
				errs <- err
				return
			}
			mu.Lock()
			if values[v] {
				errs <- fmt.Errorf("value %d delivered twice", v)
			}
			values[v] = true
			mu.Unlock()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if len(values) != calls {
		t.Fatalf("saw %d distinct replies, want %d", len(values), calls)
	}
}
