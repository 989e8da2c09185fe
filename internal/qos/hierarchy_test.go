package qos

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"maqs/internal/ior"
	"maqs/internal/netsim"
	"maqs/internal/orb"
)

func hierarchyOffers() map[string]*Offer {
	return map[string]*Offer{
		"Availability": {
			Characteristic: "Availability",
			Params: []ParamOffer{
				{Name: "replicas", Kind: KindNumber, Min: 1, Max: 3, Default: Number(2)},
			},
		},
		"Compression": {
			Characteristic: "Compression",
			Params: []ParamOffer{
				{Name: "level", Kind: KindNumber, Min: 1, Max: 9, Default: Number(6)},
			},
		},
	}
}

func leafAvail(label string, replicas, weight, utility float64) *Node {
	return NewLeaf(label, utility, &Proposal{
		Characteristic: "Availability",
		Params: []ParamProposal{
			{Name: "replicas", Desired: Number(replicas), Weight: weight},
		},
	})
}

func TestLeafPlanFeasible(t *testing.T) {
	plan := leafAvail("gold", 3, 1, 10).plan(hierarchyOffers())
	if len(plan) != 1 {
		t.Fatalf("plan = %+v", plan)
	}
	if plan[0].utility != 10 {
		t.Fatalf("utility = %g", plan[0].utility)
	}
	if plan[0].contract.Number("replicas", 0) != 3 {
		t.Fatalf("contract = %+v", plan[0].contract)
	}
}

func TestLeafUtilityDegradesWhenClamped(t *testing.T) {
	// Desired 5, offer max 3 over range [1,3]: granted 3, deviation
	// |3-5|/2 = 1 → clamped to 1 → satisfaction 0.
	plan := leafAvail("platinum", 5, 1, 10).plan(hierarchyOffers())
	if len(plan) != 1 {
		t.Fatalf("plan = %+v", plan)
	}
	if plan[0].utility != 0 {
		t.Fatalf("utility = %g, want 0", plan[0].utility)
	}
	// Desired 4: deviation |3-4|/2 = 0.5 → utility 5.
	plan = leafAvail("gold+", 4, 1, 10).plan(hierarchyOffers())
	if plan[0].utility != 5 {
		t.Fatalf("utility = %g, want 5", plan[0].utility)
	}
}

func TestLeafInfeasible(t *testing.T) {
	n := NewLeaf("impossible", 10, &Proposal{
		Characteristic: "Availability",
		Params:         []ParamProposal{{Name: "replicas", Desired: Number(9), Min: 5, Max: 9}},
	})
	if plan := n.plan(hierarchyOffers()); len(plan) != 0 {
		t.Fatalf("plan = %+v", plan)
	}
	unknown := NewLeaf("unknown", 1, &Proposal{Characteristic: "Teleportation"})
	if plan := unknown.plan(hierarchyOffers()); len(plan) != 0 {
		t.Fatalf("plan = %+v", plan)
	}
}

func TestBestOrdersByUtility(t *testing.T) {
	root := NewBest("root",
		leafAvail("cheap", 1, 1, 2),
		leafAvail("good", 3, 1, 8),
		leafAvail("degraded", 4, 1, 10), // clamped → utility 5
	)
	plan := root.plan(hierarchyOffers())
	if len(plan) != 3 {
		t.Fatalf("plan = %+v", plan)
	}
	if plan[0].label != "good" || plan[1].label != "degraded" || plan[2].label != "cheap" {
		t.Fatalf("order = %s %s %s", plan[0].label, plan[1].label, plan[2].label)
	}
}

func TestFallbackKeepsOrder(t *testing.T) {
	root := NewFallback("root",
		leafAvail("first", 1, 1, 1),
		leafAvail("second", 3, 1, 100),
	)
	plan := root.plan(hierarchyOffers())
	if plan[0].label != "first" {
		t.Fatalf("fallback order broken: %+v", plan)
	}
}

func TestNestedHierarchy(t *testing.T) {
	root := NewFallback("root",
		NewBest("availability",
			leafAvail("av-hi", 3, 1, 9),
			leafAvail("av-lo", 2, 1, 4),
		),
		NewLeaf("compress", 1, &Proposal{
			Characteristic: "Compression",
			Params:         []ParamProposal{{Name: "level", Desired: Number(9)}},
		}),
	)
	plan := root.plan(hierarchyOffers())
	if len(plan) != 3 {
		t.Fatalf("plan = %+v", plan)
	}
	if plan[0].label != "av-hi" || plan[2].label != "compress" {
		t.Fatalf("order = %+v", plan)
	}
}

func TestUnweightedParamsFullSatisfaction(t *testing.T) {
	plan := leafAvail("nw", 5, 0, 7).plan(hierarchyOffers()) // weight 0 → no degradation
	if plan[0].utility != 7 {
		t.Fatalf("utility = %g", plan[0].utility)
	}
}

// vetoImpl admits only level <= 3 despite offering up to 9 — exercising
// NegotiatePlan's negotiate-until-admitted loop.
type vetoImpl struct {
	BaseImpl
}

func (v *vetoImpl) BindingUp(b *Binding) error {
	if b.Contract.Number("level", 0) > 3 {
		return context.DeadlineExceeded // any error vetoes
	}
	return nil
}

func TestNegotiatePlanEndToEnd(t *testing.T) {
	n := netsim.NewNetwork()
	server := orb.New(orb.Options{Transport: n.Host("server")})
	if err := server.Listen("server:9990"); err != nil {
		t.Fatal(err)
	}
	defer server.Shutdown()
	impl := &vetoImpl{}
	impl.Desc = &Characteristic{Name: "Compression"}
	impl.Capability = &Offer{
		Characteristic: "Compression",
		Params: []ParamOffer{
			{Name: "level", Kind: KindNumber, Min: 1, Max: 9, Default: Number(6)},
		},
	}
	skel := NewServerSkeleton(orb.ServantFunc(func(req *orb.ServerRequest) error {
		return nil
	}))
	if err := skel.AddQoS(impl); err != nil {
		t.Fatal(err)
	}
	ref, err := server.Adapter().ActivateQoS("svc", "IDL:test/Svc:1.0", skel,
		ior.QoSInfo{Characteristics: []string{"Compression"}})
	if err != nil {
		t.Fatal(err)
	}
	client := orb.New(orb.Options{Transport: n.Host("client")})
	defer client.Shutdown()
	registry := NewRegistry()
	if err := registry.Register(&Characteristic{Name: "Compression"}, nil); err != nil {
		t.Fatal(err)
	}
	stub := NewStubWithRegistry(client, ref, registry)

	root := NewFallback("compression-prefs",
		NewLeaf("max", 10, &Proposal{
			Characteristic: "Compression",
			Params:         []ParamProposal{{Name: "level", Desired: Number(9)}},
		}),
		NewLeaf("modest", 5, &Proposal{
			Characteristic: "Compression",
			Params:         []ParamProposal{{Name: "level", Desired: Number(2)}},
		}),
	)
	d, err := stub.NegotiatePlan(context.Background(), root)
	if err != nil {
		t.Fatal(err)
	}
	// "max" resolves but admission vetoes it; "modest" wins.
	if d.Rung() != "modest" {
		t.Fatalf("winner = %q", d.Rung())
	}
	binding := stub.Binding()
	if binding == nil {
		t.Fatal("stub not bound")
	}
	if binding.Contract.Number("level", 0) != 2 {
		t.Fatalf("contract = %+v", binding.Contract)
	}
}

func TestNegotiatePlanNoFeasible(t *testing.T) {
	n := netsim.NewNetwork()
	server := orb.New(orb.Options{Transport: n.Host("server")})
	if err := server.Listen("server:9991"); err != nil {
		t.Fatal(err)
	}
	defer server.Shutdown()
	skel := NewServerSkeleton(orb.ServantFunc(func(req *orb.ServerRequest) error { return nil }))
	ref, err := server.Adapter().Activate("svc", "IDL:test/Svc:1.0", skel)
	if err != nil {
		t.Fatal(err)
	}
	client := orb.New(orb.Options{Transport: n.Host("client")})
	defer client.Shutdown()
	stub := NewStub(client, ref)
	root := NewLeaf("anything", 1, &Proposal{Characteristic: "Availability"})
	if _, err := stub.NegotiatePlan(context.Background(), root); err == nil {
		t.Fatal("negotiation against offerless server succeeded")
	}
}

// failFirstNegotiate routes the first negotiation request into a
// transport failure and everything else on to the ORB's router.
type failFirstNegotiate struct {
	orb.Router
	failed atomic.Bool
}

func (r *failFirstNegotiate) Route(inv *orb.Invocation) (orb.TransportModule, error) {
	if inv.Operation == opNegotiate && r.failed.CompareAndSwap(false, true) {
		return commFailure{}, nil
	}
	return r.Router.Route(inv)
}

type commFailure struct{}

func (commFailure) Name() string { return "comm-failure" }

func (commFailure) Send(context.Context, *orb.Invocation) (*orb.Outcome, error) {
	return nil, orb.NewSystemException(orb.ExcCommFailure, 1, "injected")
}

// A transport failure on one candidate is not the server refusing it:
// the plan stops there instead of settling for a lower tier.
func TestNegotiatePlanStopsOnTransportError(t *testing.T) {
	w := newQoSWorld(t, 0)
	w.client.SetRouter(&failFirstNegotiate{Router: w.client.Router()})
	_, err := w.stub.NegotiatePlan(context.Background(), tracingPlan(9, 4))
	var exc *orb.SystemException
	if !errors.As(err, &exc) || exc.Name != orb.ExcCommFailure {
		t.Fatalf("err = %v, want the COMM_FAILURE", err)
	}
	if w.stub.Binding() != nil || w.skel.BindingCount("Tracing") != 0 {
		t.Fatal("bound to a lower candidate after a transport failure")
	}
}

// A candidate whose characteristic the client cannot mediate passes to
// the next one, like a server refusal.
func TestNegotiatePlanPassesUnregisteredCharacteristic(t *testing.T) {
	w := newQoSWorld(t, 0)
	registry := NewRegistry()
	if err := registry.Register(&Characteristic{Name: "Tracing"}, nil); err != nil {
		t.Fatal(err)
	}
	stub := NewStubWithRegistry(w.client, w.stub.Target(), registry)
	d, err := stub.NegotiatePlan(context.Background(), NewFallback("prefs",
		NewLeaf("shadow", 2, &Proposal{Characteristic: "Shadow"}),
		NewLeaf("tracing", 1, levelProposal(3)),
	))
	if err != nil {
		t.Fatal(err)
	}
	if d.Rung() != "tracing" || stub.Binding().Characteristic != "Tracing" {
		t.Fatalf("bound %q, want tracing", d.Rung())
	}
	if n := w.skel.BindingCount("Shadow"); n != 0 {
		t.Fatalf("Shadow bindings = %d, want the refused one rolled back", n)
	}
}
