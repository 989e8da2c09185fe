package loadbalance

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"maqs/internal/ior"
	"maqs/internal/netsim"
	"maqs/internal/orb"
	"maqs/internal/qos"
)

// workServant simulates per-request work; "slow" workers hold requests.
type workServant struct {
	name  string
	delay time.Duration
	mu    sync.Mutex
	seen  int
}

func (s *workServant) Invoke(req *orb.ServerRequest) error {
	switch req.Operation {
	case "work":
		s.mu.Lock()
		s.seen++
		s.mu.Unlock()
		if s.delay > 0 {
			time.Sleep(s.delay)
		}
		req.Out.WriteString(s.name)
		return nil
	default:
		return orb.NewSystemException(orb.ExcBadOperation, 1, "no op %q", req.Operation)
	}
}

func (s *workServant) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seen
}

type farm struct {
	net      *netsim.Network
	workers  []*workServant
	skels    []*qos.ServerSkeleton
	orbs     []*orb.ORB
	cluster  *ior.IOR
	client   *orb.ORB
	registry *qos.Registry
}

// newFarm deploys n workers, all activating the same object key, and
// builds the cluster reference with alternate endpoints.
func newFarm(t *testing.T, n int, delays []time.Duration) *farm {
	t.Helper()
	network := netsim.NewNetwork()
	f := &farm{net: network, registry: qos.NewRegistry()}
	if err := Register(f.registry); err != nil {
		t.Fatal(err)
	}
	endpoints := make([]string, n)
	for i := 0; i < n; i++ {
		endpoints[i] = fmt.Sprintf("worker%d:9000", i)
	}
	var firstRef *ior.IOR
	for i := 0; i < n; i++ {
		host := fmt.Sprintf("worker%d", i)
		o := orb.New(orb.Options{Transport: network.Host(host)})
		if err := o.Listen(endpoints[i]); err != nil {
			t.Fatal(err)
		}
		servant := &workServant{name: host}
		if delays != nil {
			servant.delay = delays[i]
		}
		skel := qos.NewServerSkeleton(servant)
		if err := skel.AddQoS(NewImpl(0, endpoints)); err != nil {
			t.Fatal(err)
		}
		ref, err := o.Adapter().ActivateQoS("farm", "IDL:test/Farm:1.0", skel,
			ior.QoSInfo{Characteristics: []string{Name}})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			firstRef = ref
		}
		f.workers = append(f.workers, servant)
		f.skels = append(f.skels, skel)
		f.orbs = append(f.orbs, o)
	}
	f.cluster = firstRef.Clone()
	f.cluster.SetAlternateEndpoints(endpoints)
	f.client = orb.New(orb.Options{Transport: network.Host("client")})
	t.Cleanup(func() {
		f.client.Shutdown()
		for _, o := range f.orbs {
			o.Shutdown()
		}
	})
	return f
}

func (f *farm) negotiate(t *testing.T, strategy string) *qos.Stub {
	t.Helper()
	stub := qos.NewStubWithRegistry(f.client, f.cluster, f.registry)
	_, err := stub.Negotiate(context.Background(), &qos.Proposal{
		Characteristic: Name,
		Params:         []qos.ParamProposal{{Name: ParamStrategy, Desired: qos.Text(strategy)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return stub
}

func work(t *testing.T, stub *qos.Stub) string {
	t.Helper()
	d, err := stub.Call(context.Background(), "work", nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := d.ReadString()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRoundRobinSpreadsEvenly(t *testing.T) {
	f := newFarm(t, 4, nil)
	stub := f.negotiate(t, StrategyRoundRobin)
	for i := 0; i < 40; i++ {
		work(t, stub)
	}
	for i, w := range f.workers {
		if got := w.count(); got != 10 {
			t.Errorf("worker %d saw %d requests, want 10", i, got)
		}
	}
}

func TestRandomHitsAllWorkers(t *testing.T) {
	f := newFarm(t, 3, nil)
	stub := f.negotiate(t, StrategyRandom)
	for i := 0; i < 60; i++ {
		work(t, stub)
	}
	for i, w := range f.workers {
		if w.count() == 0 {
			t.Errorf("worker %d never used", i)
		}
	}
}

func TestLeastLoadedAvoidsBusyWorker(t *testing.T) {
	// Worker 0 is slow; concurrent least-loaded traffic should favour
	// the fast workers once load reports arrive.
	f := newFarm(t, 3, []time.Duration{80 * time.Millisecond, 0, 0})
	stub := f.negotiate(t, StrategyLeastLoaded)

	var wg sync.WaitGroup
	for i := 0; i < 48; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(t, stub)
		}()
		time.Sleep(2 * time.Millisecond)
	}
	wg.Wait()
	slow := f.workers[0].count()
	fast := f.workers[1].count() + f.workers[2].count()
	if slow*3 > fast {
		t.Fatalf("least-loaded sent %d to the slow worker vs %d to fast ones", slow, fast)
	}
}

func TestFailoverMasksDeadWorker(t *testing.T) {
	f := newFarm(t, 3, nil)
	stub := f.negotiate(t, StrategyRoundRobin)
	for i := 0; i < 6; i++ {
		work(t, stub)
	}
	f.net.Crash("worker1")
	// All subsequent calls must still succeed, served by the survivors.
	for i := 0; i < 12; i++ {
		work(t, stub)
	}
	if f.workers[0].count()+f.workers[2].count() < 12 {
		t.Fatal("survivors did not absorb the load")
	}
}

func TestAllWorkersDeadFails(t *testing.T) {
	f := newFarm(t, 2, nil)
	stub := f.negotiate(t, StrategyRoundRobin)
	work(t, stub)
	f.net.Crash("worker0")
	f.net.Crash("worker1")
	if _, err := stub.Call(context.Background(), "work", nil); err == nil {
		t.Fatal("call succeeded with all workers dead")
	}
}

func TestMembersOperation(t *testing.T) {
	f := newFarm(t, 3, nil)
	stub := f.negotiate(t, StrategyRoundRobin)
	d, err := stub.Call(context.Background(), OpMembers, nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := d.ReadULong()
	if err != nil || n != 3 {
		t.Fatalf("members = %d, %v", n, err)
	}
	first, err := d.ReadString()
	if err != nil || first != "worker0:9000" {
		t.Fatalf("member[0] = %q, %v", first, err)
	}
}

func TestLoadOperation(t *testing.T) {
	f := newFarm(t, 1, nil)
	stub := f.negotiate(t, StrategyRoundRobin)
	for i := 0; i < 5; i++ {
		work(t, stub)
	}
	d, err := stub.Call(context.Background(), OpLoad, nil)
	if err != nil {
		t.Fatal(err)
	}
	active, err := d.ReadDouble()
	if err != nil {
		t.Fatal(err)
	}
	total, err := d.ReadULongLong()
	if err != nil {
		t.Fatal(err)
	}
	if active != 0 || total != 5 {
		t.Fatalf("load = %g active, %d total", active, total)
	}
}

func TestStrategySwitchViaRenegotiation(t *testing.T) {
	f := newFarm(t, 2, nil)
	stub := f.negotiate(t, StrategyRoundRobin)
	work(t, stub)
	c, err := stub.Renegotiate(context.Background(), &qos.Proposal{
		Characteristic: Name,
		Params:         []qos.ParamProposal{{Name: ParamStrategy, Desired: qos.Text(StrategyLeastLoaded)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Text(ParamStrategy, "") != StrategyLeastLoaded {
		t.Fatalf("contract = %+v", c)
	}
	med := stub.Mediator().(*Mediator)
	med.mu.Lock()
	got := med.strategy
	med.mu.Unlock()
	if got != StrategyLeastLoaded {
		t.Fatalf("mediator strategy = %q", got)
	}
}

func TestUnknownStrategyRejected(t *testing.T) {
	f := newFarm(t, 1, nil)
	stub := qos.NewStubWithRegistry(f.client, f.cluster, f.registry)
	_, err := stub.Negotiate(context.Background(), &qos.Proposal{
		Characteristic: Name,
		Params:         []qos.ParamProposal{{Name: ParamStrategy, Desired: qos.Text("tarot-cards")}},
	})
	if err == nil {
		t.Fatal("bogus strategy negotiated")
	}
}

func TestSingleEndpointFallback(t *testing.T) {
	// A cluster reference without alternate endpoints balances over the
	// single profile endpoint.
	f := newFarm(t, 1, nil)
	plain := f.cluster.Clone()
	plain.Profile.Components = nil
	info := ior.QoSInfo{Characteristics: []string{Name}}
	plain.SetQoS(info)
	stub := qos.NewStubWithRegistry(f.client, plain, f.registry)
	if _, err := stub.Negotiate(context.Background(), &qos.Proposal{Characteristic: Name}); err != nil {
		t.Fatal(err)
	}
	if got := work(t, stub); got != "worker0" {
		t.Fatalf("served by %q", got)
	}
	med := stub.Mediator().(*Mediator)
	if members := med.Members(); len(members) != 1 {
		t.Fatalf("members = %v", members)
	}
}

func TestWeightedStrategyHonoursWeights(t *testing.T) {
	f := newFarm(t, 4, nil)
	stub := qos.NewStubWithRegistry(f.client, f.cluster, f.registry)
	if _, err := stub.Negotiate(context.Background(), &qos.Proposal{
		Characteristic: Name,
		Params: []qos.ParamProposal{
			{Name: ParamStrategy, Desired: qos.Text(StrategyWeighted)},
			{Name: ParamWeights, Desired: qos.Text("5,1,1,1")},
		},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 80; i++ {
		work(t, stub)
	}
	// Weight 5 of total 8: worker0 should carry 50 of 80 jobs exactly
	// (smooth WRR is deterministic).
	if got := f.workers[0].count(); got != 50 {
		t.Fatalf("weighted worker0 = %d jobs, want 50", got)
	}
	for i := 1; i < 4; i++ {
		if got := f.workers[i].count(); got != 10 {
			t.Fatalf("weighted worker%d = %d jobs, want 10", i, got)
		}
	}
}

func TestWeightedStrategyDefaultsToEqualWeights(t *testing.T) {
	f := newFarm(t, 3, nil)
	stub := qos.NewStubWithRegistry(f.client, f.cluster, f.registry)
	if _, err := stub.Negotiate(context.Background(), &qos.Proposal{
		Characteristic: Name,
		Params: []qos.ParamProposal{
			{Name: ParamStrategy, Desired: qos.Text(StrategyWeighted)},
			{Name: ParamWeights, Desired: qos.Text("garbage,,-3")},
		},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		work(t, stub)
	}
	for i, w := range f.workers {
		if got := w.count(); got != 10 {
			t.Fatalf("worker %d = %d jobs, want 10", i, got)
		}
	}
}

func TestWeightedSurvivesDeadWorker(t *testing.T) {
	f := newFarm(t, 3, nil)
	stub := qos.NewStubWithRegistry(f.client, f.cluster, f.registry)
	if _, err := stub.Negotiate(context.Background(), &qos.Proposal{
		Characteristic: Name,
		Params: []qos.ParamProposal{
			{Name: ParamStrategy, Desired: qos.Text(StrategyWeighted)},
			{Name: ParamWeights, Desired: qos.Text("1,8,1")},
		},
	}); err != nil {
		t.Fatal(err)
	}
	work(t, stub)
	f.net.Crash("worker1") // the heavyweight dies
	for i := 0; i < 10; i++ {
		work(t, stub)
	}
	if f.workers[0].count()+f.workers[2].count() < 10 {
		t.Fatal("survivors did not absorb the weighted load")
	}
}

func wantBindings(t *testing.T, f *farm, when string, want int) {
	t.Helper()
	for i, skel := range f.skels {
		if n := skel.BindingCount(Name); n != want {
			t.Fatalf("%s: worker %d holds %d bindings, want %d", when, i, n, want)
		}
	}
}

// TestReleaseReleasesEveryWorker: sixteen concurrent first calls spread
// over four workers leave each with exactly one binding — first contact is
// single-flight — and releasing the stub's binding releases all of them.
func TestReleaseReleasesEveryWorker(t *testing.T) {
	f := newFarm(t, 4, nil)
	stub := f.negotiate(t, StrategyRoundRobin)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := stub.Call(context.Background(), "work", nil); err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()
	wantBindings(t, f, "after 16 concurrent first calls", 1)
	if err := stub.Release(context.Background()); err != nil {
		t.Fatal(err)
	}
	wantBindings(t, f, "after Release", 0)
}
