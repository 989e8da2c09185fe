package replication

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"maqs/internal/cdr"
	"maqs/internal/ior"
	"maqs/internal/netsim"
	"maqs/internal/orb"
	"maqs/internal/qos"
)

// counterServant is a deterministic stateful service with a state
// accessor (the aspect-integration interface).
type counterServant struct {
	mu    sync.Mutex
	value int64
	// corrupt makes this replica return wrong results (voting tests).
	corrupt bool
}

func (s *counterServant) Invoke(req *orb.ServerRequest) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch req.Operation {
	case "add":
		v, err := req.In().ReadLongLong()
		if err != nil {
			return err
		}
		s.value += v
		result := s.value
		if s.corrupt {
			result += 1000
		}
		req.Out.WriteLongLong(result)
		return nil
	case "get":
		result := s.value
		if s.corrupt {
			result += 1000
		}
		req.Out.WriteLongLong(result)
		return nil
	default:
		return orb.NewSystemException(orb.ExcBadOperation, 1, "no op %q", req.Operation)
	}
}

// GetState / SetState implement qos.StateAccessor.
func (s *counterServant) GetState() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteLongLong(s.value)
	return e.Bytes(), nil
}

func (s *counterServant) SetState(data []byte) error {
	v, err := cdr.NewDecoder(data, cdr.BigEndian).ReadLongLong()
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.value = v
	return nil
}

var _ qos.StateAccessor = (*counterServant)(nil)

type replica struct {
	host     string
	endpoint string
	orb      *orb.ORB
	servant  *counterServant
	impl     *Impl
	skel     *qos.ServerSkeleton
	ref      *ior.IOR
}

type group struct {
	net      *netsim.Network
	replicas []*replica
	cluster  *ior.IOR
	client   *orb.ORB
	registry *qos.Registry
}

func startReplica(t *testing.T, network *netsim.Network, idx int, endpoints []string) *replica {
	t.Helper()
	host := fmt.Sprintf("rep%d", idx)
	o := orb.New(orb.Options{Transport: network.Host(host)})
	if err := o.Listen(endpoints[idx]); err != nil {
		t.Fatal(err)
	}
	servant := &counterServant{}
	impl := NewImpl(8, endpoints, servant)
	skel := qos.NewServerSkeleton(servant)
	if err := skel.AddQoS(impl); err != nil {
		t.Fatal(err)
	}
	ref, err := o.Adapter().ActivateQoS("counter", "IDL:test/Counter:1.0", skel,
		ior.QoSInfo{Characteristics: []string{Name}})
	if err != nil {
		t.Fatal(err)
	}
	return &replica{host: host, endpoint: endpoints[idx], orb: o, servant: servant, impl: impl, skel: skel, ref: ref}
}

func newGroup(t *testing.T, n int) *group {
	t.Helper()
	network := netsim.NewNetwork()
	g := &group{net: network, registry: qos.NewRegistry()}
	if err := Register(g.registry); err != nil {
		t.Fatal(err)
	}
	endpoints := make([]string, n)
	for i := range endpoints {
		endpoints[i] = fmt.Sprintf("rep%d:9500", i)
	}
	for i := 0; i < n; i++ {
		g.replicas = append(g.replicas, startReplica(t, network, i, endpoints))
	}
	g.cluster = g.replicas[0].ref.Clone()
	g.cluster.SetAlternateEndpoints(endpoints)
	g.client = orb.New(orb.Options{Transport: network.Host("client")})
	t.Cleanup(func() {
		g.client.Shutdown()
		for _, r := range g.replicas {
			r.orb.Shutdown()
		}
	})
	return g
}

func (g *group) negotiate(t *testing.T, params ...qos.ParamProposal) (*qos.Stub, *Mediator) {
	t.Helper()
	stub := qos.NewStubWithRegistry(g.client, g.cluster, g.registry)
	_, err := stub.Negotiate(context.Background(), &qos.Proposal{
		Characteristic: Name,
		Params:         params,
	})
	if err != nil {
		t.Fatal(err)
	}
	return stub, stub.Mediator().(*Mediator)
}

func add(t *testing.T, stub *qos.Stub, v int64) int64 {
	t.Helper()
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteLongLong(v)
	d, err := stub.Call(context.Background(), "add", e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadLongLong()
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func get(t *testing.T, stub *qos.Stub) int64 {
	t.Helper()
	d, err := stub.Call(context.Background(), "get", nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadLongLong()
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestActiveReplicationKeepsReplicasInSync(t *testing.T) {
	g := newGroup(t, 3)
	stub, _ := g.negotiate(t, qos.ParamProposal{Name: ParamReplicas, Desired: qos.Number(3)})
	for i := int64(1); i <= 5; i++ {
		add(t, stub, i)
	}
	// All replicas executed every update.
	for i, r := range g.replicas {
		r.servant.mu.Lock()
		v := r.servant.value
		r.servant.mu.Unlock()
		if v != 15 {
			t.Errorf("replica %d value = %d, want 15", i, v)
		}
	}
}

func TestCrashMaskedByActiveReplication(t *testing.T) {
	g := newGroup(t, 3)
	stub, med := g.negotiate(t, qos.ParamProposal{Name: ParamReplicas, Desired: qos.Number(3)})
	add(t, stub, 10)

	g.net.Crash("rep1")
	if got := add(t, stub, 5); got != 15 {
		t.Fatalf("add after crash = %d", got)
	}
	if got := get(t, stub); got != 15 {
		t.Fatalf("get after crash = %d", got)
	}
	st := med.Stats()
	if st.MaskedFailures == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestKAvailability(t *testing.T) {
	// With k=5 replicas, the service survives k-1 crashes.
	g := newGroup(t, 5)
	stub, _ := g.negotiate(t, qos.ParamProposal{Name: ParamReplicas, Desired: qos.Number(5)})
	add(t, stub, 1)
	for i := 1; i < 5; i++ {
		g.net.Crash(fmt.Sprintf("rep%d", i))
		if got := get(t, stub); got != 1 {
			t.Fatalf("get after %d crashes = %d", i, got)
		}
	}
	// All replicas down: the call fails.
	g.net.Crash("rep0")
	if _, err := stub.Call(context.Background(), "get", nil); err == nil {
		t.Fatal("call succeeded with the whole group down")
	}
}

func TestFailoverStrategy(t *testing.T) {
	g := newGroup(t, 3)
	stub, med := g.negotiate(t,
		qos.ParamProposal{Name: ParamReplicas, Desired: qos.Number(3)},
		qos.ParamProposal{Name: ParamStrategy, Desired: qos.Text(StrategyFailover)},
	)
	add(t, stub, 7)
	// Failover sends to one replica only.
	if st := med.Stats(); st.FanOut != 1 {
		t.Fatalf("stats = %+v", st)
	}
	g.net.Crash("rep0")
	if got := get(t, stub); got != 0 {
		// rep1 never saw the add (failover only updates the primary) —
		// this is the documented weaker consistency of failover reads
		// against an unsynchronised backup.
		t.Logf("failover read from backup = %d", got)
	}
	if st := med.Stats(); st.MaskedFailures == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMajorityVotingOutvotesCorruptReplica(t *testing.T) {
	g := newGroup(t, 3)
	g.replicas[2].servant.mu.Lock()
	g.replicas[2].servant.corrupt = true
	g.replicas[2].servant.mu.Unlock()

	stub, med := g.negotiate(t,
		qos.ParamProposal{Name: ParamReplicas, Desired: qos.Number(3)},
		qos.ParamProposal{Name: ParamVoting, Desired: qos.Flag(true)},
	)
	if got := add(t, stub, 3); got != 3 {
		t.Fatalf("voted add = %d", got)
	}
	st := med.Stats()
	if st.VoteRounds != 1 || st.VoteDisagreements != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMajorityVotingFailsWithoutMajority(t *testing.T) {
	g := newGroup(t, 3)
	// Two of three corrupt — and corrupt differently? They corrupt the
	// same way (+1000), so they WOULD form a majority; instead corrupt
	// one and crash one, leaving 1 honest + 1 corrupt = no majority of 2
	// out of engaged 3.
	g.replicas[1].servant.mu.Lock()
	g.replicas[1].servant.corrupt = true
	g.replicas[1].servant.mu.Unlock()

	stub, med := g.negotiate(t,
		qos.ParamProposal{Name: ParamReplicas, Desired: qos.Number(3)},
		qos.ParamProposal{Name: ParamVoting, Desired: qos.Flag(true)},
	)
	g.net.Crash("rep2")
	_, err := stub.Call(context.Background(), "get", nil)
	var sys *orb.SystemException
	if !errors.As(err, &sys) || sys.Name != orb.ExcBadQoS {
		t.Fatalf("err = %v", err)
	}
	if st := med.Stats(); st.VoteDisagreements != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReplicaCountClampedByOffer(t *testing.T) {
	g := newGroup(t, 2)
	stub, med := g.negotiate(t, qos.ParamProposal{Name: ParamReplicas, Desired: qos.Number(99)})
	// Offer max is 8, but only 2 members exist; engaged set is 2.
	add(t, stub, 1)
	if st := med.Stats(); st.FanOut != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if stub.Binding().Contract.Number(ParamReplicas, 0) != 8 {
		t.Fatalf("contract = %+v", stub.Binding().Contract)
	}
}

func TestJoinTransfersState(t *testing.T) {
	g := newGroup(t, 2)
	stub, med := g.negotiate(t, qos.ParamProposal{Name: ParamReplicas, Desired: qos.Number(2)})
	add(t, stub, 42)

	// Start a third replica and join it through a running member.
	endpoints := []string{"rep0:9500", "rep1:9500", "rep2:9500"}
	r2 := startReplica(t, g.net, 2, endpoints)
	r2.impl.SetMembers(endpoints[:2]) // simulate a stale initial view
	g.replicas = append(g.replicas, r2)
	joinerClient := orb.New(orb.Options{Transport: g.net.Host("rep2")})
	defer joinerClient.Shutdown()
	if err := Join(context.Background(), r2.orb, g.replicas[0].ref, r2.endpoint, r2.impl); err != nil {
		t.Fatal(err)
	}

	// The joiner got the current state.
	r2.servant.mu.Lock()
	v := r2.servant.value
	r2.servant.mu.Unlock()
	if v != 42 {
		t.Fatalf("joined replica state = %d", v)
	}
	// The member's view now contains the joiner.
	found := false
	for _, m := range g.replicas[0].impl.Members() {
		if m == "rep2:9500" {
			found = true
		}
	}
	if !found {
		t.Fatalf("members = %v", g.replicas[0].impl.Members())
	}
	// The joiner's own view includes everyone.
	if len(r2.impl.Members()) != 3 {
		t.Fatalf("joiner members = %v", r2.impl.Members())
	}

	// Extend the client's view and verify the new replica serves reads.
	med.SetMembers(endpoints)
	if got := get(t, stub); got != 42 {
		t.Fatalf("get with joined member = %d", got)
	}
}

func TestRestartedReplicaRejoinsAfterStateLoss(t *testing.T) {
	g := newGroup(t, 3)
	stub, _ := g.negotiate(t, qos.ParamProposal{Name: ParamReplicas, Desired: qos.Number(3)})
	add(t, stub, 11)

	// Crash and restart rep2 with empty state.
	g.net.Crash("rep2")
	if got := get(t, stub); got != 11 {
		t.Fatalf("get during outage = %d", got)
	}
	g.net.Restart("rep2")
	endpoints := []string{"rep0:9500", "rep1:9500", "rep2:9500"}
	r2 := startReplica(t, g.net, 2, endpoints)
	defer r2.orb.Shutdown()
	if err := Join(context.Background(), r2.orb, g.replicas[0].ref, r2.endpoint, r2.impl); err != nil {
		t.Fatal(err)
	}
	r2.servant.mu.Lock()
	v := r2.servant.value
	r2.servant.mu.Unlock()
	if v != 11 {
		t.Fatalf("rejoined state = %d", v)
	}
	// The client's next calls renegotiate the lost binding transparently
	// and the rejoined replica participates again.
	if got := add(t, stub, 1); got != 12 {
		t.Fatalf("add after rejoin = %d", got)
	}
	r2.servant.mu.Lock()
	v = r2.servant.value
	r2.servant.mu.Unlock()
	if v != 12 {
		t.Fatalf("rejoined replica missed the update: %d", v)
	}
}

func TestGroupManagementOps(t *testing.T) {
	g := newGroup(t, 2)
	stub, _ := g.negotiate(t)
	// Members.
	d, err := stub.Call(context.Background(), OpMembers, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := d.ReadULong(); n != 2 {
		t.Fatalf("members = %d", n)
	}
	// Get/Set state through the aspect integration interface.
	add(t, stub, 5)
	d, err = stub.Call(context.Background(), OpGetState, nil)
	if err != nil {
		t.Fatal(err)
	}
	state, err := d.ReadOctets()
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := cdr.NewDecoder(state, cdr.BigEndian).ReadLongLong(); v != 5 {
		t.Fatalf("state = %d", v)
	}
	// Leave.
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteString("rep1:9500")
	if _, err := stub.Call(context.Background(), OpLeave, e.Bytes()); err != nil {
		t.Fatal(err)
	}
}

func TestStatelessServiceRejectsStateOps(t *testing.T) {
	network := netsim.NewNetwork()
	o := orb.New(orb.Options{Transport: network.Host("s")})
	if err := o.Listen("s:1"); err != nil {
		t.Fatal(err)
	}
	defer o.Shutdown()
	impl := NewImpl(2, []string{"s:1"}, nil) // no state accessor
	skel := qos.NewServerSkeleton(orb.ServantFunc(func(req *orb.ServerRequest) error {
		req.Out.WriteString("ok")
		return nil
	}))
	if err := skel.AddQoS(impl); err != nil {
		t.Fatal(err)
	}
	ref, err := o.Adapter().ActivateQoS("svc", "IDL:test/Svc:1.0", skel,
		ior.QoSInfo{Characteristics: []string{Name}})
	if err != nil {
		t.Fatal(err)
	}
	client := orb.New(orb.Options{Transport: network.Host("c")})
	defer client.Shutdown()
	registry := qos.NewRegistry()
	if err := Register(registry); err != nil {
		t.Fatal(err)
	}
	stub := qos.NewStubWithRegistry(client, ref, registry)
	if _, err := stub.Negotiate(context.Background(), &qos.Proposal{Characteristic: Name}); err != nil {
		t.Fatal(err)
	}
	_, err = stub.Call(context.Background(), OpGetState, nil)
	var sys *orb.SystemException
	if !errors.As(err, &sys) || sys.Name != orb.ExcNoImplement {
		t.Fatalf("err = %v", err)
	}
}

// bindings reports how many Availability bindings each replica holds.
func (g *group) bindings() []int {
	counts := make([]int, len(g.replicas))
	for i, r := range g.replicas {
		counts[i] = r.skel.BindingCount(Name)
	}
	return counts
}

func wantBindings(t *testing.T, g *group, when string, want int) {
	t.Helper()
	for i, n := range g.bindings() {
		if n != want {
			t.Fatalf("%s: replica %d holds %d bindings, want %d (all: %v)", when, i, n, want, g.bindings())
		}
	}
}

// TestReleaseReleasesEveryReplica: the stub negotiated one binding, the
// mediator one more per further replica; releasing the stub's ends them all.
func TestReleaseReleasesEveryReplica(t *testing.T) {
	g := newGroup(t, 3)
	stub, _ := g.negotiate(t, qos.ParamProposal{Name: ParamReplicas, Desired: qos.Number(3)})
	add(t, stub, 1)
	wantBindings(t, g, "after the first call", 1)
	if err := stub.Release(context.Background()); err != nil {
		t.Fatal(err)
	}
	wantBindings(t, g, "after Release", 0)
}

// TestReleaseReleasesBindingForgottenOnTimeout: a replica that times out
// once is masked and its binding forgotten, but the replica is alive and
// still holds the entry; when it answers again it gets a second binding,
// and Release ends both.
func TestReleaseReleasesBindingForgottenOnTimeout(t *testing.T) {
	g := newGroup(t, 3)
	stub, med := g.negotiate(t, qos.ParamProposal{Name: ParamReplicas, Desired: qos.Number(3)})
	add(t, stub, 1)

	slow := g.replicas[1].servant
	slow.mu.Lock() // rep1's servant blocks until the caller has given up
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	_, err := stub.Call(ctx, "get", nil)
	cancel()
	slow.mu.Unlock()
	if err != nil {
		t.Fatalf("timeout of one replica not masked: %v", err)
	}
	if masked := med.Stats().MaskedFailures; masked != 1 {
		t.Fatalf("masked failures = %d, want 1", masked)
	}

	add(t, stub, 1)
	if got := g.bindings(); got[1] != 2 {
		t.Fatalf("bindings after rep1 answered again = %v, want 2 on rep1", got)
	}
	if err := stub.Release(context.Background()); err != nil {
		t.Fatal(err)
	}
	wantBindings(t, g, "after Release", 0)
}

// TestConcurrentFirstContactNegotiatesOnce: sixteen callers reach the two
// replicas nobody has contacted yet at the same moment; each replica is
// asked for exactly one binding (a second one would never be released).
func TestConcurrentFirstContactNegotiatesOnce(t *testing.T) {
	g := newGroup(t, 3)
	stub, _ := g.negotiate(t, qos.ParamProposal{Name: ParamReplicas, Desired: qos.Number(3)})
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := stub.Call(context.Background(), "get", nil); err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()
	wantBindings(t, g, "after 16 concurrent first calls", 1)
	if err := stub.Release(context.Background()); err != nil {
		t.Fatal(err)
	}
	wantBindings(t, g, "after Release", 0)
}

// TestLostBindingIsRenegotiated: a replica that answers "unknown binding"
// over a live connection (it was redeployed and lost its table) is masked
// like a crashed one, and the next call gives it a fresh binding — one,
// however many callers noticed the loss.
func TestLostBindingIsRenegotiated(t *testing.T) {
	g := newGroup(t, 3)
	stub, med := g.negotiate(t, qos.ParamProposal{Name: ParamReplicas, Desired: qos.Number(3)})
	add(t, stub, 4)

	// Redeploy rep1's object under the same key: same state, empty table.
	r1 := g.replicas[1]
	skel := qos.NewServerSkeleton(r1.servant)
	if err := skel.AddQoS(NewImpl(8, []string{"rep0:9500", "rep1:9500", "rep2:9500"}, r1.servant)); err != nil {
		t.Fatal(err)
	}
	r1.orb.Adapter().Deactivate("counter")
	if _, err := r1.orb.Adapter().ActivateQoS("counter", "IDL:test/Counter:1.0", skel,
		ior.QoSInfo{Characteristics: []string{Name}}); err != nil {
		t.Fatal(err)
	}
	r1.skel = skel

	masked := med.Stats().MaskedFailures
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := stub.Call(context.Background(), "get", nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if med.Stats().MaskedFailures == masked {
		t.Fatal("the lost binding was not masked as a replica failure")
	}
	if got := add(t, stub, 1); got != 5 {
		t.Fatalf("add after the loss = %d", got)
	}
	r1.servant.mu.Lock()
	v := r1.servant.value
	r1.servant.mu.Unlock()
	if v != 5 {
		t.Fatalf("the redeployed replica missed the update: %d", v)
	}
	wantBindings(t, g, "after renegotiation", 1)
	if err := stub.Release(context.Background()); err != nil {
		t.Fatal(err)
	}
	wantBindings(t, g, "after Release", 0)
}
