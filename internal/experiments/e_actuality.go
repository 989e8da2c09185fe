package experiments

import (
	"context"
	"fmt"
	"testing"
	"time"

	"maqs"
	"maqs/internal/characteristics/actuality"
)

// e7 is the actuality characteristic: what a read costs when the contract
// forces it to the origin and when a loose contract lets the mediator
// answer from its cache, and — the shape — how hit rate, origin load and
// observed staleness move with the contracted max age.
var e7 = Experiment{
	ID: "E7", Name: "actuality contracts",
	Title: "freshness contracts: 200 polls at ~1ms while the origin updates every 5ms",
	Claim: "§6: 'actuality of data' as a negotiable characteristic — staleness stays below the contracted max age while origin load drops",
	Cases: []Case{
		{"E7Actuality/uncached", func(tb testing.TB) (func(), int64) { return e7Read(tb, 0) }},
		{"E7Actuality/cached60s", func(tb testing.TB) (func(), int64) { return e7Read(tb, 60_000) }},
	},
	Shape: e7Staleness,
	Notes: []string{"larger max-age contracts trade staleness for origin load: hits rise and origin reads fall as the contract loosens, while observed staleness stays within the agreed bound (+ update/round-trip slack)"},
}

// freshness is a clock object bound to Actuality with the given max age.
func freshness(clock *clockServant, maxAgeMS float64) Config {
	return Config{
		Servant:  func(int) maqs.Servant { return clock },
		Impl:     func([]string) maqs.Impl { return actuality.NewImpl(0, time.Minute) },
		Proposal: propose(maqs.Actuality, maqs.ParamProposal{Name: actuality.ParamMaxAgeMS, Desired: maqs.Number(maxAgeMS)}),
	}
}

func e7Read(tb testing.TB, maxAgeMS float64) (func(), int64) {
	w := NewWorld(tb, freshness(&clockServant{}, maxAgeMS))
	return call(tb, w.Stub, "get_stamp", nil), 0
}

// e7Staleness polls a value under different max-age contracts while the
// origin updates continuously; it reports the cache hit rate, the origin
// load and the worst observed staleness against the contracted bound.
func e7Staleness(tb testing.TB) ([]string, [][]string) {
	var rows [][]string
	for _, maxAgeMS := range []float64{0, 20, 100, 500} {
		rows = append(rows, e7Poll(tb, maxAgeMS))
	}
	return []string{"max_age", "polls", "cache hits", "origin reads", "max staleness", "bound held"}, rows
}

func e7Poll(tb testing.TB, maxAgeMS float64) []string {
	const polls = 200
	clock := &clockServant{}
	clock.update()
	w := NewWorld(tb, freshness(clock, maxAgeMS))

	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() { // the origin updates continuously
		defer close(stopped)
		ticker := time.NewTicker(5 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				clock.update()
			case <-stop:
				return
			}
		}
	}()
	defer func() { // also when a poll fails: tb.Fatal runs deferred calls
		close(stop)
		<-stopped
	}()
	var worst time.Duration
	for i := 0; i < polls; i++ {
		d, err := w.Stub.Call(context.Background(), "get_stamp", nil)
		if err != nil {
			tb.Fatal(err)
		}
		stamp, err := d.ReadLongLong()
		if err != nil {
			tb.Fatal(err)
		}
		worst = max(worst, time.Since(time.Unix(0, stamp)))
		time.Sleep(time.Millisecond)
	}

	// The observable staleness bound is the contract plus one update
	// interval plus the round trip; use the contract + 25ms slack.
	held := "yes"
	if worst > time.Duration(maxAgeMS)*time.Millisecond+25*time.Millisecond {
		held = "NO"
	}
	hits := w.Stub.Mediator().(*actuality.Mediator).Stats().Hits
	return []string{
		fmt.Sprintf("%gms", maxAgeMS), fmt.Sprint(polls), fmt.Sprint(hits),
		fmt.Sprint(clock.reads.Load()), fmtDur(worst), held,
	}
}
