package experiments

import (
	"context"
	"fmt"
	"testing"
	"time"

	"maqs"
	"maqs/internal/characteristics/replication"
)

// e3 measures availability under crash injection for replica counts
// k=1..5, and what the active fan-out costs per call: on zero-latency links
// that is serialised per-replica CPU, k-linear on one core by construction;
// over links with real propagation delay (WAN) the group's latency is the
// slowest replica's round trip, so k=5 tracks k=1.
var e3 = Experiment{
	ID: "E3", Name: "availability vs replica count",
	Title: "availability under crash injection (active replication)",
	Claim: "§3.1/§6: 'as long as there is one replica running, the service can be fulfilled' — fault-tolerance through replica groups",
	Cases: e3Cases(),
	Shape: e3Availability,
	Notes: []string{"availability stays at 100% for every k because k-1 crashes never exhaust the group (k-availability); masked failures grow with the crash count"},
}

func e3Cases() []Case {
	var cases []Case
	for _, family := range []struct {
		name string
		link maqs.Link
	}{{"E3Replication", maqs.Link{}}, {"E3ReplicationWAN", maqs.Link{Latency: 200 * time.Microsecond}}} {
		for _, k := range []int{1, 3, 5} {
			cases = append(cases, Case{fmt.Sprintf("%s/k=%d", family.name, k), func(tb testing.TB) (func(), int64) {
				cfg := Replicated(k)
				cfg.Link = family.link
				return NewWorld(tb, cfg).Echo(tb, []byte("payload")), 0
			}})
		}
	}
	return cases
}

// e3Availability crashes k-1 replicas at evenly spaced points of a request
// sequence and reports how many requests succeeded.
func e3Availability(tb testing.TB) ([]string, [][]string) {
	const requests = 200
	var rows [][]string
	for k := 1; k <= 5; k++ {
		w := NewWorld(tb, Replicated(k))
		crashAt := make(map[int]int) // request index → replica to crash
		for victim := 1; victim < k; victim++ {
			crashAt[victim*requests/k] = victim
		}
		args, succeeded := w.Octets([]byte("payload")), 0
		for i := 0; i < requests; i++ {
			if victim, crash := crashAt[i]; crash {
				w.Net.Crash(fmt.Sprintf("member%d", victim))
			}
			if out, err := w.Stub.Call(context.Background(), "echo", args); err == nil {
				if _, err := out.ReadOctets(); err == nil {
					succeeded++
				}
			}
		}
		stats := w.Stub.Mediator().(*replication.Mediator).Stats()
		rows = append(rows, []string{
			fmt.Sprint(k), fmt.Sprint(k - 1), fmt.Sprint(requests), fmt.Sprint(succeeded),
			fmtPct(float64(succeeded) / requests), fmt.Sprint(stats.MaskedFailures),
		})
	}
	return []string{"replicas k", "crashes", "requests", "succeeded", "availability", "masked failures"}, rows
}

// ablationVoting isolates the cost of majority voting on top of active
// replication (k=3): the fan-out is identical, only the vote differs.
func ablationVoting() []Case {
	var cases []Case
	for _, c := range []struct {
		name   string
		voting bool
	}{{"novote", false}, {"vote", true}} {
		cases = append(cases, Case{"AblationVoting/" + c.name, func(tb testing.TB) (func(), int64) {
			cfg := Replicated(3, maqs.ParamProposal{Name: replication.ParamVoting, Desired: maqs.Flag(c.voting)})
			return NewWorld(tb, cfg).Echo(tb, []byte("ballot")), 0
		}})
	}
	return cases
}
