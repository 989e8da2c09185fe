package qos

import (
	"context"
	"fmt"
	"testing"
	"testing/quick"
)

// TestResolveIdempotent: negotiating again with the granted values as the
// new desires must grant exactly the same contract (renegotiation with an
// unchanged wish is a no-op).
func TestResolveIdempotent(t *testing.T) {
	offer := testOffer()
	f := func(replicas float64, strategyPick uint8, voting bool) bool {
		strategy := []string{"active", "passive"}[strategyPick%2]
		p := &Proposal{
			Characteristic: "Availability",
			Params: []ParamProposal{
				{Name: "replicas", Desired: Number(replicas)},
				{Name: "strategy", Desired: Text(strategy)},
				{Name: "voting", Desired: Flag(voting)},
			},
		}
		c1, err := resolve(p, offer)
		if err != nil {
			return true // infeasible first time is fine
		}
		// Second round: desire exactly what was granted.
		p2 := proposalFromContract(c1)
		c2, err := resolve(p2, offer)
		if err != nil {
			return false
		}
		for _, t := range c1.Values {
			if !c2.Value(t.Name).Equal(t.Value) {
				return false
			}
		}
		return len(c1.Values) == len(c2.Values)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestResolveMonotoneClamp: the granted numeric value never exceeds the
// offer maximum nor falls below the offer minimum, regardless of desires
// and proposal ranges.
func TestResolveMonotoneClamp(t *testing.T) {
	offer := testOffer()
	po, _ := offer.param("replicas")
	f := func(desired, lo, hi float64) bool {
		p := &Proposal{
			Characteristic: "Availability",
			Params:         []ParamProposal{{Name: "replicas", Desired: Number(desired), Min: lo, Max: hi}},
		}
		c, err := resolve(p, offer)
		if err != nil {
			return true
		}
		granted := c.Number("replicas", -1)
		return granted >= po.Min && granted <= po.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestProposalFromContractRoundTrip checks the helper used to replicate
// agreements onto further servers.
func TestProposalFromContractRoundTrip(t *testing.T) {
	c := &Contract{
		Characteristic: "Availability",
		Values: []Term{
			{"replicas", Number(3)},
			{"strategy", Text("active")},
			{"voting", Flag(true)},
		},
	}
	p := proposalFromContract(c)
	if p.Characteristic != "Availability" || len(p.Params) != 3 {
		t.Fatalf("proposal = %+v", p)
	}
	c2, err := resolve(p, testOffer())
	if err != nil {
		t.Fatal(err)
	}
	for _, term := range c.Values {
		if got := c2.Value(term.Name); !got.Equal(term.Value) {
			t.Fatalf("value %q = %v, want %v", term.Name, got, term.Value)
		}
	}
}

// TestPlanLadderProperty binds random 2–4-leaf hierarchies over two
// characteristics against a server that vetoes random Tracing levels, walks
// the Degrader to the bottom of the ladder and back up, and checks that
// the stub is never bound to a contract outside the plan and that the walk
// ends on the contract first bound.
func TestPlanLadderProperty(t *testing.T) {
	w := newQoSWorld(t, 0)
	ctx := context.Background()
	offers, err := w.stub.queryOffers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	f := func(shape uint8, levels, utilities [4]uint8, vetoes uint16) bool {
		n := 2 + int(shape%3)
		leaves := make([]*Node, n)
		for i := range leaves {
			p := levelProposal(float64(levels[i] % 10))
			if levels[i]&0x80 != 0 {
				p = &Proposal{Characteristic: "Shadow", Params: []ParamProposal{{Name: "depth", Desired: Number(float64(levels[i] % 2))}}}
			}
			leaves[i] = NewLeaf(fmt.Sprintf("leaf-%d", i), float64(utilities[i]%8+1), p)
		}
		kinds := []func(string, ...*Node) *Node{NewFallback, NewBest}
		outer, inner := kinds[shape>>2&1], kinds[shape>>3&1]
		root := outer("root", leaves...)
		if shape&0x10 != 0 {
			root = outer("root", append([]*Node{inner("inner", leaves[:n/2]...)}, leaves[n/2:]...)...)
		}

		w.impl.mu.Lock()
		w.impl.vetoes = map[float64]bool{}
		for level := 0; level < 10; level++ {
			w.impl.vetoes[float64(level)] = vetoes>>level&1 != 0
		}
		w.impl.mu.Unlock()
		defer func() { _ = w.stub.Release(ctx) }()

		plan := root.plan(offers)
		inPlan := func() bool {
			b := w.stub.Binding()
			if b == nil {
				return false
			}
			for _, c := range plan {
				if sameTerms(b.Contract, c.contract) {
					return true
				}
			}
			return false
		}
		d, err := w.stub.NegotiatePlan(ctx, root)
		if err != nil {
			return w.stub.Binding() == nil
		}
		first := w.stub.Binding().Contract
		if !inPlan() {
			return false
		}
		for {
			if _, err := d.Degrade(ctx, "walk"); err != nil {
				break
			}
			if !inPlan() {
				return false
			}
		}
		for d.Level() > 0 {
			if _, err := d.Recover(ctx); err != nil || !inPlan() {
				return false
			}
		}
		return sameTerms(w.stub.Binding().Contract, first)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// sameTerms reports whether two contracts agree on characteristic and
// values (epochs aside).
func sameTerms(a, b *Contract) bool {
	if a.Characteristic != b.Characteristic || len(a.Values) != len(b.Values) {
		return false
	}
	for _, t := range a.Values {
		if !b.Value(t.Name).Equal(t.Value) {
			return false
		}
	}
	return true
}
