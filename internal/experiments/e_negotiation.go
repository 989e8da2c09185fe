package experiments

import (
	"context"
	"fmt"
	"testing"
	"time"

	"maqs"
	"maqs/internal/contract"
	"maqs/internal/qos"
)

// e8 is the negotiation family: what an agreement and its renegotiation
// cost per call, and — the shape — a contract hierarchy resolving past an
// admission veto and a full monitoring-driven adaptation loop.
var e8 = Experiment{
	ID: "E8", Name: "negotiation and adaptation",
	Title: "negotiation, renegotiation and adaptation",
	Claim: "§3: per-relationship agreements, adaptation by renegotiation when resources change; outlook: preferences as contract hierarchies",
	Cases: []Case{
		{"E8Negotiation/negotiateRelease", func(tb testing.TB) (func(), int64) {
			cfg := NullBound()
			proposal, ctx := cfg.Proposal, context.Background()
			cfg.Proposal = nil
			stub := NewWorld(tb, cfg).Stub
			return func() {
				if _, err := stub.Negotiate(ctx, proposal); err != nil {
					tb.Fatal(err)
				}
				if err := stub.Release(ctx); err != nil {
					tb.Fatal(err)
				}
			}, 0
		}},
		{"E8Negotiation/renegotiate", func(tb testing.TB) (func(), int64) {
			cfg := NullBound()
			stub, ctx := NewWorld(tb, cfg).Stub, context.Background()
			return func() {
				if _, err := stub.Renegotiate(ctx, cfg.Proposal); err != nil {
					tb.Fatal(err)
				}
			}, 0
		}},
	},
	Shape: e8Adaptation,
	Notes: []string{"negotiation costs one extra round trip per agreement; adaptation closes the loop from monitoring to a renegotiated contract without touching application code"},
}

// tierImpl offers a numeric "tier" parameter and vetoes tiers above its
// admission limit, so contract hierarchies have something to fall back
// over.
type tierImpl struct {
	qos.BaseImpl
	admitMax float64
}

func newTierImpl(offerMax, admitMax float64) *tierImpl {
	return &tierImpl{admitMax: admitMax, BaseImpl: qos.BaseImpl{
		Desc: &qos.Characteristic{Name: "Tiered"},
		Capability: &qos.Offer{Characteristic: "Tiered", Params: []qos.ParamOffer{
			{Name: "tier", Kind: qos.KindNumber, Min: 1, Max: offerMax, Default: qos.Number(1)}}},
	}}
}

func (i *tierImpl) BindingUp(b *qos.Binding) error {
	if b.Contract.Number("tier", 0) > i.admitMax {
		return fmt.Errorf("admission limit %g exceeded", i.admitMax)
	}
	return nil
}

func tier(n float64) *maqs.Proposal {
	return propose("Tiered", maqs.ParamProposal{Name: "tier", Desired: maqs.Number(n)})
}

func e8Adaptation(tb testing.TB) ([]string, [][]string) {
	w := NewWorld(tb, Config{Impl: func([]string) maqs.Impl { return newTierImpl(9, 3) }})
	ctx := context.Background()
	w.Echo(tb, nil)() // open the connection: the first row times the hierarchy, not the dial

	// Contract hierarchy: tier 9 resolves against the offer but admission
	// rejects it; the hierarchy falls back to tier 3.
	start := time.Now()
	_, winner, err := contract.NegotiateBest(ctx, w.Client.Stub(w.Ref), contract.NewFallback("tiers",
		contract.NewLeaf("premium", 10, tier(9)),
		contract.NewLeaf("standard", 5, tier(3)),
	))
	if err != nil {
		tb.Fatal(err)
	}
	rows := [][]string{{
		"hierarchy fallback",
		fmt.Sprintf("%q admitted after %q vetoed", winner.Label, "premium"),
		fmtDur(time.Since(start)),
	}}

	// Adaptation loop: a latency rule fires once the link degrades, and
	// the action renegotiates down to tier 1.
	stub := w.Stub
	if _, err := stub.Negotiate(ctx, tier(3)); err != nil {
		tb.Fatal(err)
	}
	monitor := qos.NewMonitor(16)
	stub.AddObserver(monitor.Observe)
	adapted := false
	adaptor := qos.NewAdaptor(monitor, func(qos.Rule, qos.Stats) {
		if _, err := stub.Renegotiate(ctx, tier(1)); err == nil {
			adapted = true
		}
	})
	adaptor.AddRule(qos.Rule{
		Name:     "latency-degraded",
		Violated: func(s qos.Stats) bool { return s.Window >= 8 && s.P50 > 5*time.Millisecond },
		Cooldown: time.Hour,
	})
	args := w.Octets(nil)
	for i := 0; i < 16; i++ {
		if _, err := stub.Call(ctx, "echo", args); err != nil {
			tb.Fatal(err)
		}
		adaptor.Evaluate()
	}
	if adapted {
		tb.Fatal("adaptation fired before degradation")
	}

	// Degrade the link and keep calling; the rule must fire. New
	// connections pick up the link, so cut the old one.
	w.Net.SetLink("client", "server", maqs.Link{Latency: 8 * time.Millisecond})
	w.Net.Partition("client", "server")
	w.Net.Heal("client", "server")
	start = time.Now()
	for i := 0; i < 64 && !adapted; i++ {
		_, _ = stub.Call(ctx, "echo", args) // the first call after the partition may fail; retry
		adaptor.Evaluate()
	}
	if !adapted {
		tb.Fatal("adaptation never fired after degradation")
	}
	rows = append(rows, []string{
		"adaptation (monitor→renegotiate)",
		fmt.Sprintf("tier now %g after latency rule fired", stub.Binding().Contract.Number("tier", 0)),
		fmtDur(time.Since(start)),
	})
	return []string{"operation", "result", "latency"}, rows
}
