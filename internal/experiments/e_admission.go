package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"
	"time"

	"maqs"
	"maqs/internal/obs"
	"maqs/internal/orb"
	"maqs/internal/qos"
)

// e11 is overload: two QoS classes against one server whose admission
// gates their negotiated contracts size. Load is open-loop — each request
// has an intended send time from a seeded Poisson schedule, and latency
// counts from that time, so a request held back behind a stalled one is
// charged its wait instead of being omitted.
var e11 = Experiment{
	ID: "E11", Name: "overload and admission",
	Title: "overload and admission: 2x capacity offered to one class, 0.5x to another, one server",
	Claim: "§3/§4: the negotiated contract, not application code, sizes the server's dispatch — a class whose contract bounds its round trip keeps it while another class floods",
	Cases: []Case{
		{"E11Admission/ungated", admissionEcho(nil)},
		{"E11Admission/gated", admissionEcho([]maqs.ParamProposal{workers(4)})},
	},
	Shape: e11Overload,
	Notes: []string{"the flooded class's gate sheds its excess in microseconds, so its admitted requests wait at most queue_depth service times; the protected class never waits behind it and keeps its max_rtt_ms; the gated case costs the gate's atomic count and slot over the ungated echo"},
}

// The service model: every request holds one of serverSlots for
// serviceTime, so the server's capacity is serverSlots ÷ serviceTime, and
// each class's gate gives it classWorkers of those slots.
const (
	serverSlots  = 4
	classWorkers = 2
	serviceTime  = 10 * time.Millisecond
	overloadSpan = 500 * time.Millisecond
)

// e11Classes are the shape's two classes: each negotiates half the
// server's slots; the flooded one is offered twice that share's capacity,
// the protected one half of it with a 50 ms round-trip bound.
func e11Classes() []class {
	capacity := classWorkers / serviceTime.Seconds()
	return []class{
		{"Flooded", []maqs.ParamProposal{workers(classWorkers), number(qos.ContractQueueDepth, 8)}, 2 * capacity, 32},
		{"Protected", []maqs.ParamProposal{workers(classWorkers), number(qos.ContractMaxRTTMs, 50)}, capacity / 2, 32},
	}
}

func e11Overload(tb testing.TB) ([]string, [][]string) {
	servant := serviceServant{slots: make(chan struct{}, serverSlots), delay: serviceTime}
	classes := e11Classes()
	var rows [][]string
	for i, r := range overload(tb, servant, overloadSpan, 1, classes...) {
		c := classes[i]
		rows = append(rows, []string{c.name, contractTerms(c.terms),
			fmt.Sprintf("%d (%.1f× cap)", r.offered, c.rate*serviceTime.Seconds()/classWorkers),
			fmt.Sprint(r.offered - r.shed["queue-full"] - r.shed["deadline"]),
			fmt.Sprint(r.shed["queue-full"]), fmt.Sprint(r.shed["deadline"]),
			fmt.Sprintf("%.0f", r.goodput()),
			fmtDur(r.latency.Quantile(0.5)), fmtDur(r.latency.Quantile(0.99))})
	}
	return []string{"class", "contract", "offered", "admitted", "shed queue-full", "shed deadline", "goodput/s", "p50", "p99"}, rows
}

// class is one QoS class of an overload run: its characteristic (the
// server's admission class), the contract terms it negotiates, its offered
// Poisson rate, and how many client identities send it, each with one
// request outstanding.
type class struct {
	name    string
	terms   []maqs.ParamProposal
	rate    float64
	clients int
}

func workers(n float64) maqs.ParamProposal { return number(qos.ContractDispatchWorkers, n) }

func number(name string, v float64) maqs.ParamProposal {
	return maqs.ParamProposal{Name: name, Desired: maqs.Number(v)}
}

func contractTerms(terms []maqs.ParamProposal) string {
	s := make([]string, len(terms))
	for i, t := range terms {
		s[i] = fmt.Sprintf("%s=%v", t.Name, t.Desired)
	}
	return strings.Join(s, " ")
}

// classRun is what one class saw.
type classRun struct {
	offered int
	start   time.Time // of the schedule
	// latency counts from each request's intended send time, service from
	// its actual send; both only for successful replies.
	latency, service obs.Histogram

	mu      sync.Mutex
	good    int            // successful replies within the contract's max_rtt_ms, if any
	shed    map[string]int // by the reason the shed reply names
	err     error          // the first failure that was not a shed
	elapsed time.Duration  // from the schedule's start to the last reply
}

// goodput is good replies per second of the class's run.
func (r *classRun) goodput() float64 { return float64(r.good) / r.elapsed.Seconds() }

// record accounts one reply. A shed reply is a TRANSIENT whose detail
// names its reason: "request shed by admission control (<reason>, class <c>)".
func (r *classRun) record(intended, sent time.Time, maxRTT time.Duration, err error) {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.elapsed = max(r.elapsed, now.Sub(r.start))
	var exc *orb.SystemException
	switch {
	case err == nil:
		r.latency.Observe(now.Sub(intended))
		r.service.Observe(now.Sub(sent))
		if maxRTT == 0 || now.Sub(intended) <= maxRTT {
			r.good++
		}
	case errors.As(err, &exc) && strings.Contains(exc.Detail, "shed by admission control ("):
		_, reason, _ := strings.Cut(exc.Detail, "(")
		reason, _, _ = strings.Cut(reason, ",")
		r.shed[reason]++
	case r.err == nil:
		r.err = err
	}
}

// overload offers every class its seeded Poisson schedule over span
// against one server running servant, and returns what each class saw.
func overload(tb testing.TB, servant maqs.Servant, span time.Duration, seed uint64, classes ...class) []*classRun {
	_, stubs := admissionWorld(tb, servant, classes)
	ctx := context.Background()
	runs := make([]*classRun, len(classes))
	start := time.Now()
	var wg sync.WaitGroup
	for i, c := range classes {
		jobs := poissonSchedule(c.rate, span, rand.New(rand.NewPCG(seed, uint64(i))))
		runs[i] = &classRun{offered: len(jobs), start: start, shed: map[string]int{}}
		queue := make(chan time.Duration, len(jobs))
		for _, off := range jobs {
			queue <- off
		}
		close(queue)
		maxRTT := time.Duration(stubs[i].Binding().Contract.Number(qos.ContractMaxRTTMs, 0) * float64(time.Millisecond))
		for k := 0; k < c.clients; k++ {
			wg.Add(1)
			go func(r *classRun, stub *maqs.Stub) {
				defer wg.Done()
				for off := range queue {
					intended := start.Add(off)
					time.Sleep(time.Until(intended))
					sent := time.Now()
					_, err := stub.Call(ctx, "echo", nil)
					r.record(intended, sent, maxRTT, err)
				}
			}(runs[i], stubs[i])
		}
	}
	wg.Wait()
	for i, r := range runs {
		if r.err != nil {
			tb.Fatalf("class %s: %v", classes[i].name, r.err)
		}
	}
	return runs
}

// poissonSchedule draws the intended send offsets of a Poisson process of
// rate per second over span: exponential gaps, independent of how fast
// the server answers — the open-loop property.
func poissonSchedule(rate float64, span time.Duration, rng *rand.Rand) []time.Duration {
	var offs []time.Duration
	for off := time.Duration(0); ; {
		off += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if off >= span {
			return offs
		}
		offs = append(offs, off)
	}
}

// admissionWorld deploys servant on one server whose dispatch policy is
// learned from contracts — maqs.NewAdmissionController(base).Policy, fed
// by the skeleton through SetAdmission — with one characteristic per
// class, and returns the client with one stub per class, bound by its terms.
func admissionWorld(tb testing.TB, servant maqs.Servant, classes []class) (*maqs.System, []*maqs.Stub) {
	tb.Helper()
	net := maqs.NewNetwork()
	admission := maqs.NewAdmissionController(maqs.ClassPolicy{})
	system := func(opts maqs.Options) *maqs.System {
		sys, err := maqs.NewSystem(opts)
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(sys.Shutdown)
		return sys
	}
	server := system(maqs.Options{Transport: net.Host("server"), AdmissionPolicy: admission.Policy})
	client := system(maqs.Options{Transport: net.Host("client")})
	if err := server.Listen("server:1"); err != nil {
		tb.Fatal(err)
	}
	skel := maqs.NewServerSkeleton(servant)
	skel.SetAdmission(admission)
	info := maqs.QoSInfo{}
	for _, c := range classes {
		if err := skel.AddQoS(classImpl(c.name)); err != nil {
			tb.Fatal(err)
		}
		if err := client.Registry.Register(&qos.Characteristic{Name: c.name}, nil); err != nil {
			tb.Fatal(err)
		}
		info.Characteristics = append(info.Characteristics, c.name)
	}
	ref, err := server.ActivateQoS("echo", "IDL:bench/Echo:1.0", skel, info)
	if err != nil {
		tb.Fatal(err)
	}
	stubs := make([]*maqs.Stub, len(classes))
	for i, c := range classes {
		stubs[i] = client.Stub(ref)
		if _, err := stubs[i].Negotiate(context.Background(), propose(c.name, c.terms...)); err != nil {
			tb.Fatal(err)
		}
	}
	return client, stubs
}

// classImpl is a characteristic that does nothing per request and offers
// the contract terms the admission controller maps onto a dispatch policy.
func classImpl(name string) maqs.Impl {
	term := func(name string, max float64) qos.ParamOffer {
		return qos.ParamOffer{Name: name, Kind: qos.KindNumber, Min: 0, Max: max, Default: qos.Number(0)}
	}
	return &qos.BaseImpl{Desc: &qos.Characteristic{Name: name}, Capability: &qos.Offer{Characteristic: name, Params: []qos.ParamOffer{
		term(qos.ContractDispatchWorkers, 64), term(qos.ContractQueueDepth, 1024), term(qos.ContractMaxRTTMs, 1000)}}}
}

// admissionEcho is one echo through a class bound by terms on a server
// that learns its dispatch policy from contracts.
func admissionEcho(terms []maqs.ParamProposal) func(tb testing.TB) (func(), int64) {
	return func(tb testing.TB) (func(), int64) {
		client, stubs := admissionWorld(tb, echoServant{}, []class{{name: "Echo", terms: terms}})
		return call(tb, stubs[0], "echo", (&World{Client: client}).Octets([]byte("echo"))), 0
	}
}

// serviceServant answers after serving for delay on one of slots, the
// server's fixed capacity whatever its dispatch layer admits.
type serviceServant struct {
	slots chan struct{}
	delay time.Duration
}

func (s serviceServant) Invoke(req *orb.ServerRequest) error {
	s.slots <- struct{}{}
	time.Sleep(s.delay)
	<-s.slots
	return nil
}
