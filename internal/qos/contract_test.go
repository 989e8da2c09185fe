package qos

import (
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"maqs/internal/cdr"
)

func testOffer() *Offer {
	return &Offer{
		Characteristic: "Availability",
		Capacity:       4,
		Params: []ParamOffer{
			{Name: "replicas", Kind: KindNumber, Min: 1, Max: 5, Default: Number(2)},
			{Name: "strategy", Kind: KindString, Choices: []string{"active", "passive"}, Default: Text("active")},
			{Name: "voting", Kind: KindBool, Default: Flag(false)},
		},
	}
}

func TestResolveDesiredWithinRange(t *testing.T) {
	p := &Proposal{
		Characteristic: "Availability",
		Params: []ParamProposal{
			{Name: "replicas", Desired: Number(3)},
			{Name: "strategy", Desired: Text("passive")},
			{Name: "voting", Desired: Flag(true)},
		},
	}
	c, err := resolve(p, testOffer())
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Number("replicas", 0); got != 3 {
		t.Fatalf("replicas = %g", got)
	}
	if got := c.Text("strategy", ""); got != "passive" {
		t.Fatalf("strategy = %q", got)
	}
	if !c.Flag("voting", false) {
		t.Fatal("voting not agreed")
	}
}

func TestResolveClampsToOffer(t *testing.T) {
	p := &Proposal{
		Characteristic: "Availability",
		Params:         []ParamProposal{{Name: "replicas", Desired: Number(9)}},
	}
	c, err := resolve(p, testOffer())
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Number("replicas", 0); got != 5 {
		t.Fatalf("replicas clamped to %g, want 5", got)
	}
}

func TestResolveDefaultsApply(t *testing.T) {
	p := &Proposal{Characteristic: "Availability"}
	c, err := resolve(p, testOffer())
	if err != nil {
		t.Fatal(err)
	}
	if c.Number("replicas", 0) != 2 || c.Text("strategy", "") != "active" || c.Flag("voting", true) {
		t.Fatalf("defaults = %+v", c.Values)
	}
}

func TestResolveDisjointRangesFail(t *testing.T) {
	p := &Proposal{
		Characteristic: "Availability",
		Params:         []ParamProposal{{Name: "replicas", Desired: Number(8), Min: 7, Max: 9}},
	}
	_, err := resolve(p, testOffer())
	if err == nil {
		t.Fatal("disjoint ranges resolved")
	}
	if !strings.Contains(err.Error(), "disjoint") {
		t.Fatalf("err = %v", err)
	}
}

func TestResolveProposalRangeIntersects(t *testing.T) {
	// Proposal wants at least 3: feasible [3,5], desired 10 → clamp to 5.
	p := &Proposal{
		Characteristic: "Availability",
		Params:         []ParamProposal{{Name: "replicas", Desired: Number(10), Min: 3, Max: 10}},
	}
	c, err := resolve(p, testOffer())
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Number("replicas", 0); got != 5 {
		t.Fatalf("replicas = %g", got)
	}
}

func TestResolveUnknownChoiceFails(t *testing.T) {
	p := &Proposal{
		Characteristic: "Availability",
		Params:         []ParamProposal{{Name: "strategy", Desired: Text("quantum")}},
	}
	if _, err := resolve(p, testOffer()); err == nil {
		t.Fatal("unknown choice resolved")
	}
}

func TestResolveUnknownParamFails(t *testing.T) {
	p := &Proposal{
		Characteristic: "Availability",
		Params:         []ParamProposal{{Name: "colour", Desired: Text("red")}},
	}
	if _, err := resolve(p, testOffer()); err == nil {
		t.Fatal("unknown parameter resolved")
	}
}

func TestResolveKindMismatchFails(t *testing.T) {
	p := &Proposal{
		Characteristic: "Availability",
		Params:         []ParamProposal{{Name: "replicas", Desired: Text("three")}},
	}
	if _, err := resolve(p, testOffer()); err == nil {
		t.Fatal("kind mismatch resolved")
	}
}

func TestResolveWrongCharacteristicFails(t *testing.T) {
	p := &Proposal{Characteristic: "Compression"}
	if _, err := resolve(p, testOffer()); err == nil {
		t.Fatal("wrong characteristic resolved")
	}
}

func TestResolveContractWithinOfferProperty(t *testing.T) {
	o := testOffer()
	f := func(desired float64, lo, hi float64) bool {
		p := &Proposal{
			Characteristic: "Availability",
			Params:         []ParamProposal{{Name: "replicas", Desired: Number(desired), Min: lo, Max: hi}},
		}
		c, err := resolve(p, o)
		if err != nil {
			return true // rejections are fine; admitted contracts must be in range
		}
		got := c.Number("replicas", -1)
		return got >= o.Params[0].Min && got <= o.Params[0].Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestProposalOfferContractWireRoundTrip(t *testing.T) {
	p := &Proposal{
		Characteristic: "Availability",
		Params: []ParamProposal{
			{Name: "replicas", Desired: Number(3), Min: 1, Max: 5, Weight: 0.7},
			{Name: "strategy", Desired: Text("active")},
		},
	}
	e := cdr.NewEncoder(cdr.LittleEndian)
	p.Marshal(e)
	gotP, _, err := unmarshalProposal(cdr.NewDecoder(e.Bytes(), cdr.LittleEndian), nil)
	if err != nil {
		t.Fatal(err)
	}
	if gotP.Characteristic != p.Characteristic || len(gotP.Params) != 2 {
		t.Fatalf("proposal = %+v", gotP)
	}
	if pp, _ := gotP.param("replicas"); pp.Weight != 0.7 || !pp.Desired.Equal(Number(3)) {
		t.Fatalf("param = %+v", pp)
	}

	o := testOffer()
	e = cdr.NewEncoder(cdr.BigEndian)
	o.Marshal(e)
	gotO, err := unmarshalOffer(cdr.NewDecoder(e.Bytes(), cdr.BigEndian))
	if err != nil {
		t.Fatal(err)
	}
	if gotO.Capacity != 4 || len(gotO.Params) != 3 {
		t.Fatalf("offer = %+v", gotO)
	}
	if po, _ := gotO.param("strategy"); len(po.Choices) != 2 || !po.Default.Equal(Text("active")) {
		t.Fatalf("param offer = %+v", po)
	}

	c, err := resolve(p, o)
	if err != nil {
		t.Fatal(err)
	}
	c.Epoch = 3
	e = cdr.NewEncoder(cdr.BigEndian)
	c.Marshal(e)
	gotC, err := unmarshalContract(cdr.NewDecoder(e.Bytes(), cdr.BigEndian), nil)
	if err != nil {
		t.Fatal(err)
	}
	if gotC.Epoch != 3 || gotC.Characteristic != "Availability" || len(gotC.Values) != len(c.Values) {
		t.Fatalf("contract = %+v", gotC)
	}
	for i, want := range c.Values {
		if got := gotC.Values[i]; got.Name != want.Name || !got.Value.Equal(want.Value) {
			t.Fatalf("term %d = %+v, want %+v", i, got, want)
		}
	}
}

// TestDecodedNamesComeFromTheSchema: a proposal decoded against the offer
// takes its characteristic and parameter names from the offer, a contract
// decoded against the proposal from the proposal; a name the schema does
// not hold is decoded as usual.
func TestDecodedNamesComeFromTheSchema(t *testing.T) {
	same := func(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }
	o, p := testOffer(), &Proposal{
		Characteristic: "Availability",
		Params: []ParamProposal{
			{Name: "replicas", Desired: Number(3)},
			{Name: "unknown", Desired: Number(1)},
		},
	}
	e := cdr.NewEncoder(cdr.BigEndian)
	p.Marshal(e)
	var asked string
	gotP, gotO, err := unmarshalProposal(cdr.NewDecoder(e.Bytes(), cdr.BigEndian), func(char []byte) *Offer {
		asked = string(char)
		return o
	})
	if err != nil {
		t.Fatal(err)
	}
	if asked != "Availability" || gotO != o {
		t.Fatalf("offer asked for %q, handed back %p (want %p)", asked, gotO, o)
	}
	if !same(gotP.Characteristic, o.Characteristic) || !same(gotP.Params[0].Name, o.Params[0].Name) {
		t.Fatalf("proposal names were copied off the wire: %+v", gotP)
	}
	if gotP.Params[1].Name != "unknown" {
		t.Fatalf("unknown parameter decoded as %q", gotP.Params[1].Name)
	}

	c := &Contract{Characteristic: "Availability", Epoch: 1, Values: []Term{
		{"replicas", Number(3)}, {"strategy", Text("active")},
	}}
	e = cdr.NewEncoder(cdr.LittleEndian)
	c.Marshal(e)
	gotC, err := unmarshalContract(cdr.NewDecoder(e.Bytes(), cdr.LittleEndian), p)
	if err != nil {
		t.Fatal(err)
	}
	if !same(gotC.Characteristic, p.Characteristic) || !same(gotC.Values[0].Name, p.Params[0].Name) {
		t.Fatalf("contract names were copied off the wire: %+v", gotC)
	}
	if gotC.Text("strategy", "") != "active" {
		t.Fatalf("term outside the proposal decoded as %+v", gotC.Values[1])
	}
}

func TestValueRoundTripProperty(t *testing.T) {
	f := func(num float64, str string, flag bool, kind uint8) bool {
		var v Value
		switch kind % 3 {
		case 0:
			v = Number(num)
		case 1:
			v = Text(str)
		default:
			v = Flag(flag)
		}
		e := cdr.NewEncoder(cdr.BigEndian)
		v.Marshal(e)
		got, err := unmarshalValue(cdr.NewDecoder(e.Bytes(), cdr.BigEndian))
		if err != nil {
			return false
		}
		return got.Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestValueAccessorsAndString(t *testing.T) {
	if Number(1.5).String() != "1.5" || Text("x").String() != "x" || Flag(true).String() != "true" {
		t.Fatal("Value.String misbehaves")
	}
	if (Value{}).String() != "<unset>" || !(Value{}).IsZero() {
		t.Fatal("zero value misbehaves")
	}
	if Number(1).Equal(Text("1")) {
		t.Fatal("cross-kind equality")
	}
	c := &Contract{Values: []Term{{"b", Flag(true)}, {"n", Number(2)}, {"s", Text("a")}}}
	if c.Number("s", 9) != 9 || c.Text("n", "f") != "f" || c.Flag("n", true) != true {
		t.Fatal("fallbacks not applied on kind mismatch")
	}
	var nilC *Contract
	if !nilC.Value("x").IsZero() {
		t.Fatal("nil contract value not zero")
	}
	cp := c.Clone()
	cp.Values[1].Value = Number(99)
	if c.Number("n", 0) != 2 {
		t.Fatal("Clone shares its terms")
	}
}

func TestUnmarshalValueErrors(t *testing.T) {
	if _, err := unmarshalValue(cdr.NewDecoder(nil, cdr.BigEndian)); err == nil {
		t.Fatal("empty buffer accepted")
	}
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteOctet(99)
	if _, err := unmarshalValue(cdr.NewDecoder(e.Bytes(), cdr.BigEndian)); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	desc := &Characteristic{Name: "X"}
	if err := r.Register(desc, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(desc, nil); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := r.Register(&Characteristic{}, nil); err == nil {
		t.Fatal("nameless registration accepted")
	}
	if _, ok := r.Lookup("X"); !ok {
		t.Fatal("Lookup(X) missing")
	}
	if _, ok := r.Lookup("Y"); ok {
		t.Fatal("Lookup(Y) found")
	}
	if names := r.Names(); len(names) != 1 || names[0] != "X" {
		t.Fatalf("Names = %v", names)
	}
	// Factory-less characteristic yields a nil mediator.
	m, err := r.mediatorFor(nil, &Binding{Characteristic: "X"})
	if err != nil || m != nil {
		t.Fatalf("mediatorFor = %v, %v", m, err)
	}
	if _, err := r.mediatorFor(nil, &Binding{Characteristic: "Y"}); err == nil {
		t.Fatal("unknown characteristic mediator created")
	}
}

func TestResolveUnconstrainedString(t *testing.T) {
	offer := &Offer{
		Characteristic: "X",
		Params: []ParamOffer{
			{Name: "free", Kind: KindString, Default: Text("dflt")},
		},
	}
	// Any desired value is admitted when no choices constrain it.
	c, err := resolve(&Proposal{
		Characteristic: "X",
		Params:         []ParamProposal{{Name: "free", Desired: Text("anything at all")}},
	}, offer)
	if err != nil {
		t.Fatal(err)
	}
	if c.Text("free", "") != "anything at all" {
		t.Fatalf("free = %q", c.Text("free", ""))
	}
	// Omitted parameter takes the default.
	c, err = resolve(&Proposal{Characteristic: "X"}, offer)
	if err != nil {
		t.Fatal(err)
	}
	if c.Text("free", "") != "dflt" {
		t.Fatalf("free default = %q", c.Text("free", ""))
	}
}
