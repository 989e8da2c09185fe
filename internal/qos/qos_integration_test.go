package qos

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"maqs/internal/cdr"
	"maqs/internal/giop"
	"maqs/internal/netsim"
	"maqs/internal/orb"
)

// counterServant is a tiny application object: get/inc a counter.
type counterServant struct {
	mu    sync.Mutex
	value int32
	calls int
}

func (s *counterServant) Invoke(req *orb.ServerRequest) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	switch req.Operation {
	case "inc":
		s.value++
		req.Out.WriteLong(s.value)
		return nil
	case "get":
		req.Out.WriteLong(s.value)
		return nil
	case "boom":
		return orb.NewSystemException(orb.ExcInternal, 1, "boom")
	default:
		return orb.NewSystemException(orb.ExcBadOperation, 1, "no op %q", req.Operation)
	}
}

// tracingImpl is a test QoS implementation: characteristic "Tracing" with
// a numeric "level" parameter, one management op, and prolog/epilog
// counters.
type tracingImpl struct {
	BaseImpl
	mu       sync.Mutex
	prologs  int
	epilogs  int
	ups      int
	downs    int
	lastErr  error
	vetoNext bool
	// failFrom, when positive, makes Prolog refuse calls under a contract
	// whose level is at least failFrom.
	failFrom float64
	// vetoes are the levels admission refuses.
	vetoes map[float64]bool
	// onOffer, when set, runs (unlocked) before each Offer answers.
	onOffer func()
}

func newTracingImpl(capacity int) *tracingImpl {
	impl := &tracingImpl{}
	impl.Desc = &Characteristic{
		Name:       "Tracing",
		Category:   CategoryPerformance,
		Params:     []ParameterDecl{{Name: "level", Kind: KindNumber, Default: Number(1)}},
		Operations: []string{"trace_set_level", "trace_probe"},
	}
	impl.Capability = &Offer{
		Characteristic: "Tracing",
		Capacity:       capacity,
		Params: []ParamOffer{
			{Name: "level", Kind: KindNumber, Min: 0, Max: 9, Default: Number(1)},
		},
	}
	return impl
}

func (i *tracingImpl) Offer() *Offer {
	i.mu.Lock()
	hook := i.onOffer
	i.mu.Unlock()
	if hook != nil {
		hook()
	}
	return i.Capability
}

func (i *tracingImpl) BindingUp(b *Binding) error {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.vetoNext {
		i.vetoNext = false
		return errors.New("resources exhausted")
	}
	if level := b.Contract.Number("level", -1); i.vetoes[level] {
		return fmt.Errorf("level %g vetoed", level)
	}
	i.ups++
	return nil
}

func (i *tracingImpl) BindingDown(*Binding) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.downs++
}

func (i *tracingImpl) Prolog(req *orb.ServerRequest, b *Binding) error {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.prologs++
	if level := b.Contract.Number("level", 0); i.failFrom > 0 && level >= i.failFrom {
		return orb.NewSystemException(orb.ExcNoResources, 1, "level %g over capacity", level)
	}
	return nil
}

func (i *tracingImpl) Epilog(req *orb.ServerRequest, b *Binding, invokeErr error) error {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.epilogs++
	i.lastErr = invokeErr
	return nil
}

func (i *tracingImpl) QoSOperation(req *orb.ServerRequest, b *Binding) error {
	switch req.Operation {
	case "trace_set_level":
		lvl, err := req.In().ReadDouble()
		if err != nil {
			return err
		}
		for i := range b.Contract.Values {
			if b.Contract.Values[i].Name == "level" {
				b.Contract.Values[i].Value = Number(lvl)
			}
		}
		return nil
	case "trace_probe":
		req.Out.WriteString(fmt.Sprintf("level=%g", b.Contract.Number("level", -1)))
		return nil
	default:
		return orb.NewSystemException(orb.ExcBadOperation, 1, "no QoS op %q", req.Operation)
	}
}

// secondImpl is another characteristic on the same server, to exercise
// the BAD_QOS rule for non-negotiated characteristics.
func newSecondImpl() *tracingImpl {
	impl := &tracingImpl{}
	impl.Desc = &Characteristic{
		Name:       "Shadow",
		Operations: []string{"shadow_op"},
	}
	impl.Capability = &Offer{
		Characteristic: "Shadow",
		Params:         []ParamOffer{{Name: "depth", Kind: KindNumber, Min: 0, Max: 1, Default: Number(0)}},
	}
	return impl
}

// recordingMediator counts interceptions and supports adaptation.
type recordingMediator struct {
	BaseMediator
	mu        sync.Mutex
	pres      int
	posts     int
	contracts []*Contract
}

func (m *recordingMediator) PreInvoke(_ context.Context, inv *orb.Invocation) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pres++
	return nil
}

func (m *recordingMediator) PostInvoke(_ context.Context, _ *orb.Invocation, out *orb.Outcome) (*orb.Outcome, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.posts++
	return out, nil
}

func (m *recordingMediator) ContractChanged(c *Contract) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.contracts = append(m.contracts, c)
	return nil
}

var _ AdaptiveMediator = (*recordingMediator)(nil)

type qosWorld struct {
	net      *netsim.Network
	server   *orb.ORB
	client   *orb.ORB
	servant  *counterServant
	impl     *tracingImpl
	skel     *ServerSkeleton
	stub     *Stub
	mediator *recordingMediator
	registry *Registry
}

func newQoSWorld(t *testing.T, capacity int) *qosWorld {
	t.Helper()
	n := netsim.NewNetwork()
	server := orb.New(orb.Options{Transport: n.Host("server")})
	if err := server.Listen("server:7000"); err != nil {
		t.Fatal(err)
	}
	servant := &counterServant{}
	impl := newTracingImpl(capacity)
	skel := NewServerSkeleton(servant)
	if err := skel.AddQoS(impl); err != nil {
		t.Fatal(err)
	}
	if err := skel.AddQoS(newSecondImpl()); err != nil {
		t.Fatal(err)
	}
	ref, err := server.Adapter().Activate("counter", "IDL:test/Counter:1.0", skel)
	if err != nil {
		t.Fatal(err)
	}

	client := orb.New(orb.Options{Transport: n.Host("client")})
	registry := NewRegistry()
	mediator := &recordingMediator{BaseMediator: BaseMediator{Char: "Tracing"}}
	err = registry.Register(
		&Characteristic{Name: "Tracing"},
		func(st *Stub, b *Binding) (Mediator, error) { return mediator, nil },
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := registry.Register(&Characteristic{Name: "Shadow"}, nil); err != nil {
		t.Fatal(err)
	}
	stub := NewStubWithRegistry(client, ref, registry)
	t.Cleanup(func() {
		client.Shutdown()
		server.Shutdown()
	})
	return &qosWorld{
		net: n, server: server, client: client, servant: servant,
		impl: impl, skel: skel, stub: stub, mediator: mediator, registry: registry,
	}
}

func (w *qosWorld) inc(t *testing.T) int32 {
	t.Helper()
	d, err := w.stub.Call(context.Background(), "inc", nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := d.ReadLong()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestNegotiateEstablishesBinding(t *testing.T) {
	w := newQoSWorld(t, 0)
	b, err := w.stub.Negotiate(context.Background(), &Proposal{
		Characteristic: "Tracing",
		Params:         []ParamProposal{{Name: "level", Desired: Number(7)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if b.ID == "" || b.Characteristic != "Tracing" {
		t.Fatalf("binding = %+v", b)
	}
	if got := b.Contract.Number("level", -1); got != 7 {
		t.Fatalf("level = %g", got)
	}
	if w.stub.Binding() != b {
		t.Fatal("stub binding not installed")
	}
	if w.stub.Mediator() != w.mediator {
		t.Fatal("mediator not installed")
	}
	if got, ok := w.skel.Binding(b.ID); !ok || got.Contract.Number("level", -1) != 7 {
		t.Fatal("server-side binding missing")
	}
	if w.skel.BindingCount("Tracing") != 1 {
		t.Fatalf("binding count = %d", w.skel.BindingCount("Tracing"))
	}
}

func TestBoundCallsRunPrologEpilogAndMediator(t *testing.T) {
	w := newQoSWorld(t, 0)
	if _, err := w.stub.Negotiate(context.Background(), &Proposal{Characteristic: "Tracing"}); err != nil {
		t.Fatal(err)
	}
	if got := w.inc(t); got != 1 {
		t.Fatalf("inc = %d", got)
	}
	if got := w.inc(t); got != 2 {
		t.Fatalf("inc = %d", got)
	}
	w.impl.mu.Lock()
	prologs, epilogs := w.impl.prologs, w.impl.epilogs
	w.impl.mu.Unlock()
	if prologs != 2 || epilogs != 2 {
		t.Fatalf("prologs/epilogs = %d/%d", prologs, epilogs)
	}
	w.mediator.mu.Lock()
	pres, posts := w.mediator.pres, w.mediator.posts
	w.mediator.mu.Unlock()
	if pres != 2 || posts != 2 {
		t.Fatalf("mediator pres/posts = %d/%d", pres, posts)
	}
}

func TestUnboundCallsBypassQoS(t *testing.T) {
	w := newQoSWorld(t, 0)
	if got := w.inc(t); got != 1 {
		t.Fatalf("inc = %d", got)
	}
	w.impl.mu.Lock()
	defer w.impl.mu.Unlock()
	if w.impl.prologs != 0 || w.impl.epilogs != 0 {
		t.Fatal("prolog/epilog ran without binding")
	}
}

func TestEpilogSeesServantError(t *testing.T) {
	w := newQoSWorld(t, 0)
	if _, err := w.stub.Negotiate(context.Background(), &Proposal{Characteristic: "Tracing"}); err != nil {
		t.Fatal(err)
	}
	_, err := w.stub.Call(context.Background(), "boom", nil)
	var exc *orb.SystemException
	if !errors.As(err, &exc) || exc.Name != orb.ExcInternal {
		t.Fatalf("err = %v", err)
	}
	w.impl.mu.Lock()
	defer w.impl.mu.Unlock()
	if w.impl.lastErr == nil {
		t.Fatal("epilog did not observe the servant error")
	}
}

func TestQoSOperationDispatch(t *testing.T) {
	w := newQoSWorld(t, 0)
	if _, err := w.stub.Negotiate(context.Background(), &Proposal{Characteristic: "Tracing"}); err != nil {
		t.Fatal(err)
	}
	// Management op of the negotiated characteristic works.
	e := cdr.NewEncoder(w.client.Order())
	e.WriteDouble(4)
	if _, err := w.stub.Call(context.Background(), "trace_set_level", e.Bytes()); err != nil {
		t.Fatal(err)
	}
	d, err := w.stub.Call(context.Background(), "trace_probe", nil)
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := d.ReadString(); s != "level=4" {
		t.Fatalf("probe = %q", s)
	}
}

func TestQoSOperationOfOtherCharacteristicRaisesBadQoS(t *testing.T) {
	w := newQoSWorld(t, 0)
	if _, err := w.stub.Negotiate(context.Background(), &Proposal{Characteristic: "Tracing"}); err != nil {
		t.Fatal(err)
	}
	// "shadow_op" belongs to the assigned-but-not-negotiated "Shadow".
	_, err := w.stub.Call(context.Background(), "shadow_op", nil)
	var exc *orb.SystemException
	if !errors.As(err, &exc) || exc.Name != orb.ExcBadQoS {
		t.Fatalf("err = %v", err)
	}
}

func TestQoSOperationWithoutBindingRaisesBadQoS(t *testing.T) {
	w := newQoSWorld(t, 0)
	_, err := w.stub.Call(context.Background(), "trace_probe", nil)
	var exc *orb.SystemException
	if !errors.As(err, &exc) || exc.Name != orb.ExcBadQoS {
		t.Fatalf("err = %v", err)
	}
}

func TestStaleBindingTagRejected(t *testing.T) {
	w := newQoSWorld(t, 0)
	out, err := w.client.Invoke(context.Background(), &orb.Invocation{
		Target:    w.stub.Target(),
		Operation: "inc",
		Contexts: giop.ServiceContextList{}.With(giop.SCQoS,
			QoSTag{Characteristic: "Tracing", BindingID: "no-such-binding"}.Encode()),
		ResponseExpected: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var exc *orb.SystemException
	if !errors.As(out.Err(), &exc) || exc.Name != orb.ExcBadQoS {
		t.Fatalf("err = %v", out.Err())
	}
}

// TestReleasedBindingTagRejected: the server connection has decoded and
// cached the binding's tag by the time the binding is released; the cache
// remembers the decode, not the binding, so the next request under that tag
// — byte for byte one the connection has served before — is refused.
func TestReleasedBindingTagRejected(t *testing.T) {
	w := newQoSWorld(t, 0)
	b, err := w.stub.Negotiate(context.Background(), &Proposal{Characteristic: "Tracing"})
	if err != nil {
		t.Fatal(err)
	}
	w.inc(t)
	w.inc(t)
	// Release behind the stub's back, over the same connection.
	if err := releaseBinding(context.Background(), w.client, w.stub.Target(), b); err != nil {
		t.Fatal(err)
	}
	_, err = w.stub.Call(context.Background(), "inc", nil)
	var exc *orb.SystemException
	if !errors.As(err, &exc) || exc.Name != orb.ExcBadQoS || exc.Minor != minorUnknownBinding {
		t.Fatalf("call under a released binding: %v", err)
	}
	if !unknownBinding(err) || !MemberFailure(err) {
		t.Fatal("the refusal does not class as a lost binding")
	}
}

func TestRenegotiateBumpsEpochAndNotifiesMediator(t *testing.T) {
	w := newQoSWorld(t, 0)
	if _, err := w.stub.Negotiate(context.Background(), &Proposal{
		Characteristic: "Tracing",
		Params:         []ParamProposal{{Name: "level", Desired: Number(2)}},
	}); err != nil {
		t.Fatal(err)
	}
	c, err := w.stub.Renegotiate(context.Background(), &Proposal{
		Characteristic: "Tracing",
		Params:         []ParamProposal{{Name: "level", Desired: Number(8)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Epoch != 1 || c.Number("level", -1) != 8 {
		t.Fatalf("contract = %+v", c)
	}
	if w.stub.Binding().Contract.Epoch != 1 {
		t.Fatal("stub contract not updated")
	}
	w.mediator.mu.Lock()
	defer w.mediator.mu.Unlock()
	if len(w.mediator.contracts) != 1 || w.mediator.contracts[0].Epoch != 1 {
		t.Fatalf("mediator contracts = %+v", w.mediator.contracts)
	}
}

func TestRenegotiateWithoutBinding(t *testing.T) {
	w := newQoSWorld(t, 0)
	if _, err := w.stub.Renegotiate(context.Background(), &Proposal{Characteristic: "Tracing"}); err == nil {
		t.Fatal("renegotiation without binding accepted")
	}
}

// A renegotiation reads the offer unlocked; a release landing meanwhile
// must keep the binding released on both sides.
func TestRenegotiateRacingReleaseStaysReleased(t *testing.T) {
	w := newQoSWorld(t, 0)
	ctx := context.Background()
	b, err := w.stub.Negotiate(ctx, levelProposal(5))
	if err != nil {
		t.Fatal(err)
	}
	// The next Offer is the renegotiation's: hold it until the release
	// has landed.
	blocked, unblock := make(chan struct{}), make(chan struct{})
	w.impl.mu.Lock()
	w.impl.onOffer = func() {
		close(blocked)
		<-unblock
	}
	w.impl.mu.Unlock()
	renegotiated := make(chan error, 1)
	go func() {
		_, err := w.stub.Renegotiate(ctx, levelProposal(2))
		renegotiated <- err
	}()
	<-blocked
	if err := w.stub.Release(ctx); err != nil {
		t.Fatal(err)
	}
	close(unblock)
	if err := <-renegotiated; err == nil {
		t.Fatal("renegotiation of a released binding succeeded")
	}
	if n := w.skel.BindingCount("Tracing"); n != 0 {
		t.Fatalf("BindingCount = %d, want 0", n)
	}
	if _, ok := w.skel.Binding(b.ID); ok {
		t.Fatal("the released binding is back on the server")
	}
	if w.stub.Binding() != nil {
		t.Fatal("the released binding is back on the stub")
	}
}

func TestReleaseDropsBindingBothSides(t *testing.T) {
	w := newQoSWorld(t, 0)
	b, err := w.stub.Negotiate(context.Background(), &Proposal{Characteristic: "Tracing"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.stub.Release(context.Background()); err != nil {
		t.Fatal(err)
	}
	if w.stub.Binding() != nil || w.stub.Mediator() != nil {
		t.Fatal("stub still bound")
	}
	if _, ok := w.skel.Binding(b.ID); ok {
		t.Fatal("server still holds binding")
	}
	w.impl.mu.Lock()
	downs := w.impl.downs
	w.impl.mu.Unlock()
	if downs != 1 {
		t.Fatalf("downs = %d", downs)
	}
	// Releasing again is a no-op.
	if err := w.stub.Release(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestCapacityAdmission(t *testing.T) {
	w := newQoSWorld(t, 1)
	if _, err := w.stub.Negotiate(context.Background(), &Proposal{Characteristic: "Tracing"}); err != nil {
		t.Fatal(err)
	}
	stub2 := NewStubWithRegistry(w.client, w.stub.Target(), w.registry)
	_, err := stub2.Negotiate(context.Background(), &Proposal{Characteristic: "Tracing"})
	var ne *NegotiationError
	if !errors.As(err, &ne) {
		t.Fatalf("err = %v", err)
	}
	// Releasing the first frees capacity.
	if err := w.stub.Release(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := stub2.Negotiate(context.Background(), &Proposal{Characteristic: "Tracing"}); err != nil {
		t.Fatalf("negotiate after release: %v", err)
	}
}

func TestBindingUpVeto(t *testing.T) {
	w := newQoSWorld(t, 0)
	w.impl.mu.Lock()
	w.impl.vetoNext = true
	w.impl.mu.Unlock()
	_, err := w.stub.Negotiate(context.Background(), &Proposal{Characteristic: "Tracing"})
	var ne *NegotiationError
	if !errors.As(err, &ne) {
		t.Fatalf("err = %v", err)
	}
	if w.skel.BindingCount("Tracing") != 0 {
		t.Fatal("vetoed binding still admitted")
	}
}

func TestNegotiateUnknownCharacteristic(t *testing.T) {
	w := newQoSWorld(t, 0)
	_, err := w.stub.Negotiate(context.Background(), &Proposal{Characteristic: "Nonexistent"})
	var ne *NegotiationError
	if !errors.As(err, &ne) || ne.Characteristic != "Nonexistent" {
		t.Fatalf("err = %v", err)
	}
}

func TestNegotiateInfeasibleProposal(t *testing.T) {
	w := newQoSWorld(t, 0)
	_, err := w.stub.Negotiate(context.Background(), &Proposal{
		Characteristic: "Tracing",
		Params:         []ParamProposal{{Name: "level", Desired: Number(50), Min: 20, Max: 60}},
	})
	var ne *NegotiationError
	if !errors.As(err, &ne) || ne.Param != "level" {
		t.Fatalf("err = %v", err)
	}
}

func TestQueryOffers(t *testing.T) {
	w := newQoSWorld(t, 3)
	offers, err := w.stub.queryOffers(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 2 {
		t.Fatalf("offers = %d", len(offers))
	}
	if tracing := offers["Tracing"]; tracing == nil || tracing.Capacity != 3 {
		t.Fatalf("tracing offer = %+v", tracing)
	}
}

func TestObserverSeesEveryCall(t *testing.T) {
	w := newQoSWorld(t, 0)
	var seen []Observation
	w.stub.AddObserver(func(o Observation) { seen = append(seen, o) })
	for i := 0; i < 10; i++ {
		w.inc(t)
	}
	if _, err := w.stub.Call(context.Background(), "boom", nil); err == nil {
		t.Fatal("boom succeeded")
	}
	if len(seen) != 11 {
		t.Fatalf("observed %d calls, want 11", len(seen))
	}
	for i, o := range seen {
		if o.RTT <= 0 || o.At.IsZero() || o.Characteristic != "" || (o.Err != nil) != (o.Operation == "boom") {
			t.Fatalf("observation %d = %+v", i, o)
		}
	}
}

// retryMediator exercises DeliveryMediator: it retries failed deliveries.
type retryMediator struct {
	BaseMediator
	attempts int
}

func (m *retryMediator) Deliver(ctx context.Context, inv *orb.Invocation, next Next) (*orb.Outcome, error) {
	var out *orb.Outcome
	var err error
	for try := 0; try < 3; try++ {
		m.attempts++
		out, err = next(ctx, inv)
		if err == nil && out.Err() == nil {
			return out, nil
		}
	}
	return out, err
}

var _ DeliveryMediator = (*retryMediator)(nil)

// flakyServant fails its first n invocations.
type flakyServant struct {
	mu        sync.Mutex
	failures  int
	remaining int
}

func (s *flakyServant) Invoke(req *orb.ServerRequest) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.remaining > 0 {
		s.remaining--
		s.failures++
		return orb.NewSystemException(orb.ExcTransient, 1, "transient glitch")
	}
	req.Out.WriteString("finally worked")
	return nil
}

func TestDeliveryMediatorTakesOver(t *testing.T) {
	n := netsim.NewNetwork()
	server := orb.New(orb.Options{Transport: n.Host("server")})
	if err := server.Listen("server:7100"); err != nil {
		t.Fatal(err)
	}
	defer server.Shutdown()
	ref, err := server.Adapter().Activate("flaky", "IDL:test/Flaky:1.0", &flakyServant{remaining: 2})
	if err != nil {
		t.Fatal(err)
	}
	client := orb.New(orb.Options{Transport: n.Host("client")})
	defer client.Shutdown()

	stub := NewStub(client, ref)
	med := &retryMediator{BaseMediator: BaseMediator{Char: "Retry"}}
	stub.SetMediator(med)
	d, err := stub.Call(context.Background(), "work", nil)
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := d.ReadString(); s != "finally worked" {
		t.Fatalf("result = %q", s)
	}
	if med.attempts != 3 {
		t.Fatalf("attempts = %d", med.attempts)
	}
}

func TestSkeletonAddQoSValidation(t *testing.T) {
	skel := NewServerSkeleton(&counterServant{})
	impl := newTracingImpl(0)
	if err := skel.AddQoS(impl); err != nil {
		t.Fatal(err)
	}
	if err := skel.AddQoS(newTracingImpl(0)); err == nil {
		t.Fatal("duplicate characteristic accepted")
	}
	colliding := &tracingImpl{}
	colliding.Desc = &Characteristic{Name: "Other", Operations: []string{"trace_probe"}}
	if err := skel.AddQoS(colliding); err == nil {
		t.Fatal("operation collision accepted")
	}
	nameless := &tracingImpl{}
	nameless.Desc = &Characteristic{}
	if err := skel.AddQoS(nameless); err == nil {
		t.Fatal("nameless characteristic accepted")
	}
	if chars := skel.Characteristics(); len(chars) != 1 || chars[0] != "Tracing" {
		t.Fatalf("characteristics = %v", chars)
	}
	if _, ok := skel.Impl("Tracing"); !ok {
		t.Fatal("Impl lookup failed")
	}
}

// TestConcurrentInvokeAndRenegotiate hammers a bound stub from several
// goroutines while the contract is continuously renegotiated — the race
// detector guards the binding/mediator handover.
func TestConcurrentInvokeAndRenegotiate(t *testing.T) {
	w := newQoSWorld(t, 0)
	if _, err := w.stub.Negotiate(context.Background(), &Proposal{
		Characteristic: "Tracing",
		Params:         []ParamProposal{{Name: "level", Desired: Number(1)}},
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := w.stub.Call(context.Background(), "inc", nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 25; i++ {
		if _, err := w.stub.Renegotiate(context.Background(), &Proposal{
			Characteristic: "Tracing",
			Params:         []ParamProposal{{Name: "level", Desired: Number(float64(i % 9))}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if w.stub.Binding().Contract.Epoch != 25 {
		t.Fatalf("epoch = %d", w.stub.Binding().Contract.Epoch)
	}
}
