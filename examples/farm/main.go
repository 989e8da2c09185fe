// Farm: a compute farm with QoS-managed load balancing, the
// LoadBalancing characteristic of the paper's evaluation (§6).
//
// Four workers (one deliberately slow) serve a hashing service. The
// client binds the farm's reference, negotiates least-loaded balancing
// and runs a burst of jobs; the slow worker ends up with the fewest.
//
// Run with:
//
//	go run ./examples/farm
package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"log"
	"sync"
	"time"

	"maqs"
	"maqs/internal/cdr"
	"maqs/internal/characteristics/loadbalance"
	"maqs/internal/orb"
)

// hashWorker does CPU-ish work with a configurable slowdown.
type hashWorker struct {
	name  string
	delay time.Duration
	mu    sync.Mutex
	jobs  int
}

func (w *hashWorker) Invoke(req *maqs.ServerRequest) error {
	switch req.Operation {
	case "hash":
		payload, err := req.In().ReadOctets()
		if err != nil {
			return err
		}
		if w.delay > 0 {
			time.Sleep(w.delay)
		}
		sum := sha256.Sum256(payload)
		w.mu.Lock()
		w.jobs++
		w.mu.Unlock()
		req.Out.WriteOctets(sum[:])
		req.Out.WriteString(w.name)
		return nil
	default:
		return orb.NewSystemException(orb.ExcBadOperation, 1, "no operation %q", req.Operation)
	}
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	n := maqs.NewNetwork()

	// --- deploy four workers -------------------------------------------
	endpoints := []string{"w0:7000", "w1:7000", "w2:7000", "w3:7000"}
	delays := []time.Duration{0, 0, 0, 40 * time.Millisecond} // w3 is slow
	workers := make([]*hashWorker, 4)
	var clusterRef *maqs.IOR
	for i, ep := range endpoints {
		host := fmt.Sprintf("w%d", i)
		sys, err := maqs.NewSystem(maqs.Options{Transport: n.Host(host)})
		if err != nil {
			return err
		}
		defer sys.Shutdown()
		if err := sys.Listen(ep); err != nil {
			return err
		}
		workers[i] = &hashWorker{name: host, delay: delays[i]}
		skel := maqs.NewServerSkeleton(workers[i])
		if err := skel.AddQoS(loadbalance.NewImpl(0, endpoints)); err != nil {
			return err
		}
		ref, err := sys.ActivateQoS("farm", "IDL:farm/Hasher:1.0", skel,
			maqs.QoSInfo{Characteristics: []string{maqs.LoadBalancing}})
		if err != nil {
			return err
		}
		if i == 0 {
			clusterRef = ref.Clone()
		}
	}
	clusterRef.SetAlternateEndpoints(endpoints)
	fmt.Println("farm up:", endpoints, "(w3 is slow)")

	client, err := maqs.NewSystem(maqs.Options{Transport: n.Host("client")})
	if err != nil {
		return err
	}
	defer client.Shutdown()

	// --- negotiate and run the burst -------------------------------------
	stub := client.Stub(clusterRef)
	binding, err := stub.Negotiate(ctx, &maqs.Proposal{
		Characteristic: maqs.LoadBalancing,
		Params:         []maqs.ParamProposal{{Name: "strategy", Desired: maqs.Text("least-loaded")}},
	})
	if err != nil {
		return err
	}
	fmt.Printf("negotiated LoadBalancing: strategy=%s binding=%s\n\n",
		binding.Contract.Text("strategy", "?"), binding.ID)

	payload := make([]byte, 2048)
	var wg sync.WaitGroup
	for i := 0; i < 120; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := cdr.NewEncoder(client.ORB.Order())
			e.WriteOctets(payload)
			if _, err := stub.Call(ctx, "hash", e.Bytes()); err != nil {
				log.Printf("job failed: %v", err)
			}
		}()
		time.Sleep(time.Millisecond)
	}
	wg.Wait()

	fmt.Println("120 jobs done; per-worker distribution:")
	for i, w := range workers {
		w.mu.Lock()
		fmt.Printf("  %s: %3d jobs%s\n", w.name, w.jobs, map[bool]string{true: "  (slow)"}[delays[i] > 0])
		w.mu.Unlock()
	}
	return nil
}
