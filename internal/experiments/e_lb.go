package experiments

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"maqs"
	"maqs/internal/characteristics/loadbalance"
)

// e4 compares balancing strategies: what the balancer itself costs per
// call over four equal workers, and — the shape — what each strategy makes
// of four workers of which one is four times slower.
var e4 = Experiment{
	ID: "E4", Name: "load balancing strategies",
	Title: "load balancing strategies, 4 workers (one 4x slower), 160 jobs, concurrency 8",
	Claim: "§6: 'performance by load-balancing' — strategies differ under skew, least-loaded avoids the slow worker",
	Cases: e4Cases(),
	Shape: e4Skew,
	Notes: []string{"round-robin/random give the slow worker its even 25% share and stall on it; least-loaded (feedback) and weighted (static 3:3:3:1) shift work to the fast workers and finish sooner"},
}

var strategies = []string{
	loadbalance.StrategyRoundRobin,
	loadbalance.StrategyRandom,
	loadbalance.StrategyLeastLoaded,
	loadbalance.StrategyWeighted,
}

func e4Cases() []Case {
	var cases []Case
	for _, strategy := range strategies {
		cases = append(cases, Case{"E4LoadBalance/" + strategy, func(tb testing.TB) (func(), int64) {
			return NewWorld(tb, Balanced(strategy)).Echo(tb, []byte("job")), 0
		}})
	}
	return cases
}

// e4Skew reports wall time, throughput, the share of jobs the slow worker
// received, and the spread across workers.
func e4Skew(tb testing.TB) ([]string, [][]string) {
	const jobs, concurrency = 160, 8
	delays := []time.Duration{4 * time.Millisecond, 4 * time.Millisecond, 4 * time.Millisecond, 16 * time.Millisecond}
	var rows [][]string
	for _, strategy := range strategies {
		var params []maqs.ParamProposal
		if strategy == loadbalance.StrategyWeighted {
			// Weight the fast workers 3:1 over the slow one (static
			// knowledge standing in for the feedback least-loaded gets).
			params = append(params, maqs.ParamProposal{Name: loadbalance.ParamWeights, Desired: maqs.Text("3,3,3,1")})
		}
		workers := make([]*burnServant, len(delays))
		cfg := Balanced(strategy, params...)
		cfg.Servant = func(i int) maqs.Servant {
			workers[i] = &burnServant{delay: delays[i]}
			return workers[i]
		}
		w := NewWorld(tb, cfg)

		start := time.Now()
		var wg sync.WaitGroup
		var taken, failures atomic.Int64
		for c := 0; c < concurrency; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for taken.Add(1) <= jobs {
					if _, err := w.Stub.Call(context.Background(), "burn", nil); err != nil {
						failures.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		wall := time.Since(start)
		if n := failures.Load(); n > 0 {
			tb.Fatalf("strategy %s: %d of %d jobs failed", strategy, n, jobs)
		}

		var variance float64
		mean := float64(jobs) / float64(len(workers))
		for _, s := range workers {
			d := float64(s.seen.Load()) - mean
			variance += d * d
		}
		rows = append(rows, []string{
			strategy,
			fmtDur(wall),
			fmt.Sprintf("%.0f", jobs/wall.Seconds()),
			fmtPct(float64(workers[len(workers)-1].seen.Load()) / jobs),
			fmt.Sprintf("%.2f", math.Sqrt(variance/float64(len(workers)))/mean),
		})
	}
	return []string{"strategy", "wall time", "jobs/s", "slow-worker share", "spread (CV)"}, rows
}
