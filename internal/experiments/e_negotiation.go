package experiments

import (
	"context"
	"fmt"
	"testing"
	"time"

	"maqs"
	"maqs/internal/qos"
)

// e8 is the negotiation family: what an agreement and its renegotiation
// cost per call, and — the shape — one adaptation loop over a contract
// hierarchy: its plan binds past an admission veto, the SLO engine judges
// the contract, the Degrader steps down the plan and climbs back.
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
	Notes: []string{"negotiation costs one extra round trip per agreement; adaptation closes the loop from the contract's SLO budget to a renegotiated contract without touching application code"},
}

// tierImpl offers a numeric "tier" parameter and vetoes tiers above its
// admission limit, so contract hierarchies have something to fall back
// over. Its max_rtt_ms (default 5) puts a latency bound in every tier's
// contract for the SLO engine to score.
type tierImpl struct {
	qos.BaseImpl
	admitMax float64
}

func newTierImpl(offerMax, admitMax float64) *tierImpl {
	return &tierImpl{admitMax: admitMax, BaseImpl: qos.BaseImpl{
		Desc: &qos.Characteristic{Name: "Tiered"},
		Capability: &qos.Offer{Characteristic: "Tiered", Params: []qos.ParamOffer{
			{Name: "tier", Kind: qos.KindNumber, Min: 1, Max: offerMax, Default: qos.Number(1)},
			{Name: qos.ContractMaxRTTMs, Kind: qos.KindNumber, Min: 1, Max: 1000, Default: qos.Number(5)}}},
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
	ctx, stub, args := context.Background(), w.Stub, w.Octets(nil)
	w.Echo(tb, nil)() // open the connection: the first row times the plan, not the dial
	var rows [][]string
	row := func(op, result string, start time.Time) {
		result += fmt.Sprintf(", tier %g", stub.Binding().Contract.Number("tier", 0))
		rows = append(rows, []string{op, result, fmtDur(time.Since(start))})
	}

	// The client's preferences: tier 9 resolves against the offer but
	// admission vetoes it, so the plan binds tier 3; tier 1 is the rung
	// below.
	start := time.Now()
	degrader, err := stub.NegotiatePlan(ctx, maqs.NewFallback("tiers",
		maqs.NewLeaf("premium", 10, tier(9)),
		maqs.NewLeaf("standard", 5, tier(3)),
		maqs.NewLeaf("basic", 1, tier(1)),
	))
	if err != nil {
		tb.Fatal(err)
	}
	row("plan (premium vetoed)", degrader.Rung()+" bound", start)

	// The SLO engine scores each call against the contract's max_rtt_ms
	// (offered default 5 ms); once the link degrades the latency budget
	// burns and the Degrader steps down the plan.
	slo := qos.NewSLOEngine(nil, nil)
	stub.AddObserver(slo.ObserverForStub(stub))
	stub.AddObserver(degrader.WatchSLO(slo))
	for i := 0; i < 16; i++ {
		if _, err := stub.Call(ctx, "echo", args); err != nil {
			tb.Fatal(err)
		}
	}
	if degrader.Level() != 0 {
		tb.Fatal("adaptation fired before degradation")
	}

	// Degrade the link and keep calling; the budget must burn. New
	// connections pick up the link, so cut the old one; the first call
	// after the cut may fail.
	relink := func(l maqs.Link) {
		w.Net.SetLink("client", "server", l)
		w.Net.Partition("client", "server")
		w.Net.Heal("client", "server")
		_, _ = stub.Call(ctx, "echo", args)
	}
	relink(maqs.Link{Latency: 8 * time.Millisecond})
	start = time.Now()
	for i := 0; i < 128 && degrader.Level() != 1; i++ {
		_, _ = stub.Call(ctx, "echo", args)
	}
	if degrader.Level() != 1 {
		tb.Fatal("adaptation never fired after degradation")
	}
	row("adaptation (SLO burn→Degrader)", degrader.Rung()+" after the latency budget burned", start)

	// Heal the link and climb back: Recover stops at the candidate the
	// plan bound, never the vetoed premium.
	relink(maqs.Link{})
	start = time.Now()
	if _, err := degrader.Recover(ctx); err != nil {
		tb.Fatal(err)
	}
	row("recovery (link healed→Recover)", degrader.Rung()+" again", start)
	return []string{"operation", "result", "latency"}, rows
}
