package qos

import (
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
		c1, err := Resolve(p, offer)
		if err != nil {
			return true // infeasible first time is fine
		}
		// Second round: desire exactly what was granted.
		p2 := proposalFromContract(c1)
		c2, err := Resolve(p2, offer)
		if err != nil {
			return false
		}
		for name, v := range c1.Values {
			if !c2.Values[name].Equal(v) {
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
	po, _ := offer.Param("replicas")
	f := func(desired, lo, hi float64) bool {
		p := &Proposal{
			Characteristic: "Availability",
			Params:         []ParamProposal{{Name: "replicas", Desired: Number(desired), Min: lo, Max: hi}},
		}
		c, err := Resolve(p, offer)
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
		Values: map[string]Value{
			"replicas": Number(3),
			"strategy": Text("active"),
			"voting":   Flag(true),
		},
	}
	p := proposalFromContract(c)
	if p.Characteristic != "Availability" || len(p.Params) != 3 {
		t.Fatalf("proposal = %+v", p)
	}
	c2, err := Resolve(p, testOffer())
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range c.Values {
		if !c2.Values[name].Equal(v) {
			t.Fatalf("value %q = %v, want %v", name, c2.Values[name], v)
		}
	}
}
