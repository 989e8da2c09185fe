package trader

import (
	"context"
	"testing"

	"maqs/internal/netsim"
	"maqs/internal/orb"
	"maqs/internal/qos"
)

func sampleOffer(id int, region string, replicasMax float64) *ServiceOffer {
	return &ServiceOffer{
		ServiceType: "IDL:bank/Account:1.0",
		Ref:         "IOR:00",
		Properties:  map[string]string{"region": region, "price": "10"},
		QoS: []*qos.Offer{{
			Characteristic: "Availability",
			Params: []qos.ParamOffer{
				{Name: "replicas", Kind: qos.KindNumber, Min: 1, Max: replicasMax, Default: qos.Number(2)},
				{Name: "strategy", Kind: qos.KindString, Choices: []string{"active"}, Default: qos.Text("active")},
				{Name: "voting", Kind: qos.KindBool, Default: qos.Flag(false)},
			},
		}},
	}
}

func TestExportQueryWithdrawLocal(t *testing.T) {
	s := NewServant()
	id1 := s.Export(sampleOffer(1, "eu", 5))
	id2 := s.Export(sampleOffer(2, "us", 2))
	if id1 == id2 {
		t.Fatal("duplicate offer ids")
	}
	offers, err := s.Query("IDL:bank/Account:1.0", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 2 {
		t.Fatalf("query all = %d", len(offers))
	}
	offers, err = s.Query("IDL:other:1.0", "")
	if err != nil || len(offers) != 0 {
		t.Fatalf("query other type = %d, %v", len(offers), err)
	}
	if !s.Withdraw(id1) || s.Withdraw(id1) {
		t.Fatal("withdraw misbehaves")
	}
	offers, _ = s.Query("IDL:bank/Account:1.0", "")
	if len(offers) != 1 || offers[0].ID != id2 {
		t.Fatalf("after withdraw = %+v", offers)
	}
}

func TestConstraintProperties(t *testing.T) {
	s := NewServant()
	s.Export(sampleOffer(1, "eu", 5))
	s.Export(sampleOffer(2, "us", 2))

	cases := map[string]int{
		`region == "eu"`:               1,
		`region != "eu"`:               1,
		`price >= 10`:                  2,
		`price > 10`:                   0,
		`price < 20 && region == "us"`: 1,
		`missing == "x"`:               0,
	}
	for constraint, want := range cases {
		offers, err := s.Query("", constraint)
		if err != nil {
			t.Fatalf("%q: %v", constraint, err)
		}
		if len(offers) != want {
			t.Errorf("%q matched %d, want %d", constraint, len(offers), want)
		}
	}
}

func TestConstraintQoSCapabilities(t *testing.T) {
	s := NewServant()
	s.Export(sampleOffer(1, "eu", 5))
	s.Export(sampleOffer(2, "us", 2))

	cases := map[string]int{
		"qos.Availability.replicas >= 3":          1, // only max 5 can reach 3
		"qos.Availability.replicas >= 2":          2,
		"qos.Availability.replicas == 4":          1,
		"qos.Availability.strategy == \"active\"": 2,
		"qos.Availability.strategy == \"magic\"":  0,
		"qos.Availability.voting == false":        2,
		"qos.Availability.nosuch >= 1":            0,
		"qos.Nonexistent.x >= 1":                  0,
	}
	for constraint, want := range cases {
		offers, err := s.Query("", constraint)
		if err != nil {
			t.Fatalf("%q: %v", constraint, err)
		}
		if len(offers) != want {
			t.Errorf("%q matched %d, want %d", constraint, len(offers), want)
		}
	}
}

func TestConstraintParseErrors(t *testing.T) {
	for _, src := range []string{"region", "== x", "a ==", "region ~ eu"} {
		if _, err := parseConstraint(src); err == nil {
			t.Errorf("parseConstraint(%q) succeeded", src)
		}
	}
	if _, err := parseConstraint(""); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteTrader(t *testing.T) {
	n := netsim.NewNetwork()
	server := orb.New(orb.Options{Transport: n.Host("trader")})
	if err := server.Listen("trader:9900"); err != nil {
		t.Fatal(err)
	}
	defer server.Shutdown()
	ref, err := server.Adapter().Activate(ObjectKey, RepoID, NewServant())
	if err != nil {
		t.Fatal(err)
	}
	clientORB := orb.New(orb.Options{Transport: n.Host("client")})
	defer clientORB.Shutdown()
	client := NewClient(clientORB, ref)
	ctx := context.Background()

	id, err := client.Export(ctx, sampleOffer(1, "eu", 5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Export(ctx, sampleOffer(2, "us", 2)); err != nil {
		t.Fatal(err)
	}

	offers, err := client.Query(ctx, "IDL:bank/Account:1.0", "qos.Availability.replicas >= 4")
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 1 || offers[0].Properties["region"] != "eu" {
		t.Fatalf("query = %+v", offers)
	}
	// The QoS offers survive the wire round trip intact.
	if len(offers[0].QoS) != 1 || offers[0].QoS[0].Characteristic != "Availability" {
		t.Fatalf("qos offers = %+v", offers[0].QoS)
	}
	po, ok := offers[0].QoS[0].Param("replicas")
	if !ok || po.Max != 5 {
		t.Fatalf("param offer = %+v", po)
	}

	ok, err = client.Withdraw(ctx, id)
	if err != nil || !ok {
		t.Fatalf("withdraw = %v, %v", ok, err)
	}
	offers, err = client.Query(ctx, "", "")
	if err != nil || len(offers) != 1 {
		t.Fatalf("after withdraw = %d, %v", len(offers), err)
	}

	// Bad constraint surfaces as BAD_PARAM.
	if _, err := client.Query(ctx, "", "region ~ eu"); err == nil {
		t.Fatal("bad constraint accepted")
	}
}
