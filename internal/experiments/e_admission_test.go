package experiments

import (
	"math"
	"math/rand/v2"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"maqs/internal/orb"
)

func TestPoissonMeanRate(t *testing.T) {
	const rate, span = 1000, 100 * time.Second
	offs := poissonSchedule(rate, span, rand.New(rand.NewPCG(1, 1)))
	// ~100k arrivals: the mean gap is 1 ms within a few percent.
	mean := span.Seconds() / float64(len(offs))
	if math.Abs(mean-0.001) > 0.0001 {
		t.Fatalf("poisson mean gap = %gs, want ~1ms", mean)
	}
	if !slices.IsSorted(offs) {
		t.Fatal("intended send offsets go backwards")
	}
}

func TestArrivalDeterminism(t *testing.T) {
	schedule := func(seed uint64) []time.Duration {
		return poissonSchedule(100, time.Second, rand.New(rand.NewPCG(seed, 9)))
	}
	if a, b := schedule(9), schedule(9); !slices.Equal(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if a, b := schedule(9), schedule(10); slices.Equal(a, b) {
		t.Fatal("different seeds produced the same schedule")
	}
}

// stallServant answers at once, except its tenth request, which stalls.
type stallServant struct {
	stall time.Duration
	calls atomic.Int64
}

func (s *stallServant) Invoke(*orb.ServerRequest) error {
	if s.calls.Add(1) == 10 {
		time.Sleep(s.stall)
	}
	return nil
}

// TestRunnerSeesQueueingDelay is the coordinated-omission check: one
// client identity, so the requests scheduled during the stall are sent
// late. Timed from their intended send they carry the stall; timed from
// the actual send (the service view) only the stalled request does, which
// p99 of ~200 requests leaves out.
func TestRunnerSeesQueueingDelay(t *testing.T) {
	const stall = 200 * time.Millisecond
	r := overload(t, &stallServant{stall: stall}, 500*time.Millisecond, 7,
		class{name: "Stalled", rate: 400, clients: 1})[0]
	if r.good != r.offered {
		t.Fatalf("%d of %d requests answered", r.good, r.offered)
	}
	if p99 := r.service.Quantile(0.99); p99 >= stall/2 {
		t.Fatalf("service p99 = %v: the stall reached more than the stalled request", p99)
	}
	if p99 := r.latency.Quantile(0.99); p99 < stall/2 {
		t.Fatalf("p99 from the intended send = %v, under half the %v stall: queueing delay was omitted", p99, stall)
	}
}

// TestAdmissionProtectsClassUnderOverload runs E11's classes: the
// protected class, offered half its share, keeps ≥ 90 % of its offered
// requests inside its max_rtt_ms and loses none to shedding, while the
// flooded class, offered twice its share, is shed.
func TestAdmissionProtectsClassUnderOverload(t *testing.T) {
	servant := serviceServant{slots: make(chan struct{}, serverSlots), delay: serviceTime}
	runs := overload(t, servant, overloadSpan, 1, e11Classes()...)
	flooded, protected := runs[0], runs[1]
	if protected.good < protected.offered*9/10 || len(protected.shed) > 0 {
		t.Errorf("protected class: %d of %d in time, shed %v", protected.good, protected.offered, protected.shed)
	}
	if len(flooded.shed) == 0 {
		t.Errorf("flooded class: nothing shed of %d offered at twice its capacity", flooded.offered)
	}
}
