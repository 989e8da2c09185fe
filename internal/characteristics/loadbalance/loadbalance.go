package loadbalance

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"

	"maqs/internal/cdr"
	"maqs/internal/giop"
	"maqs/internal/orb"
	"maqs/internal/qos"
)

// Name is the characteristic name.
const Name = "LoadBalancing"

// Parameter names.
const (
	// ParamStrategy selects the balancing strategy.
	ParamStrategy = "strategy"
	// ParamWeights holds comma-separated positive weights matching the
	// member order (e.g. "3,1,1,1"); used by the weighted strategy.
	// Missing or malformed entries default to weight 1.
	ParamWeights = "weights"
)

// Strategy names.
const (
	StrategyRoundRobin  = "round-robin"
	StrategyRandom      = "random"
	StrategyLeastLoaded = "least-loaded"
	StrategyWeighted    = "weighted"
)

// QoS operations of the characteristic.
const (
	// OpMembers returns the worker endpoints: out sequence<string>.
	OpMembers = "lb_members"
	// OpLoad returns this worker's load: out (double active, unsigned
	// long long total).
	OpLoad = "lb_load"
)

// scLoad is the reply service context carrying a worker's load report.
const scLoad uint32 = 0x4D515330

// Describe returns the characteristic descriptor.
func Describe() *qos.Characteristic {
	return &qos.Characteristic{
		Name:     Name,
		Category: qos.CategoryPerformance,
		Params: []qos.ParameterDecl{
			{Name: ParamStrategy, Kind: qos.KindString, Default: qos.Text(StrategyRoundRobin)},
		},
		Operations: []string{OpMembers, OpLoad},
	}
}

// Register adds the characteristic with its balancing mediator factory.
func Register(r *qos.Registry) error {
	err := r.Register(Describe(), func(st *qos.Stub, b *qos.Binding) (qos.Mediator, error) {
		return NewMediator(st, b)
	})
	if err != nil {
		return fmt.Errorf("loadbalance: %w", err)
	}
	return nil
}

// Impl is the per-worker server-side implementation: it tracks load and
// answers the membership operations.
type Impl struct {
	qos.BaseImpl

	mu      sync.Mutex
	members []string
	active  int
	total   uint64
}

// NewImpl constructs a worker implementation knowing the cluster members
// (worker endpoints "host:port").
func NewImpl(capacity int, members []string) *Impl {
	impl := &Impl{members: append([]string(nil), members...)}
	impl.Desc = Describe()
	impl.Capability = &qos.Offer{
		Characteristic: Name,
		Capacity:       capacity,
		Params: []qos.ParamOffer{
			{Name: ParamStrategy, Kind: qos.KindString,
				Choices: []string{StrategyRoundRobin, StrategyRandom, StrategyLeastLoaded, StrategyWeighted},
				Default: qos.Text(StrategyRoundRobin)},
			{Name: ParamWeights, Kind: qos.KindString, Default: qos.Text("")},
		},
	}
	return impl
}

// SetMembers replaces the advertised membership.
func (i *Impl) SetMembers(members []string) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.members = append([]string(nil), members...)
}

// Load reports the current (active, total) counters.
func (i *Impl) Load() (active int, total uint64) {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.active, i.total
}

// Prolog counts the request in.
func (i *Impl) Prolog(req *orb.ServerRequest, b *qos.Binding) error {
	i.mu.Lock()
	i.active++
	i.mu.Unlock()
	return nil
}

// Epilog counts the request out and piggybacks the load report.
func (i *Impl) Epilog(req *orb.ServerRequest, b *qos.Binding, invokeErr error) error {
	i.mu.Lock()
	i.active--
	i.total++
	active, total := i.active, i.total
	i.mu.Unlock()

	// The report as noteLoad's decoder reads it: a big-endian CDR double
	// and unsigned long long, written without an encoder.
	var report [16]byte
	binary.BigEndian.PutUint64(report[:8], math.Float64bits(float64(active)))
	binary.BigEndian.PutUint64(report[8:], total)
	req.OutContexts = req.OutContexts.With(scLoad, report[:])
	return nil
}

// QoSOperation answers the characteristic's operations.
func (i *Impl) QoSOperation(req *orb.ServerRequest, b *qos.Binding) error {
	switch req.Operation {
	case OpMembers:
		i.mu.Lock()
		members := append([]string(nil), i.members...)
		i.mu.Unlock()
		req.Out.WriteULong(uint32(len(members)))
		for _, m := range members {
			req.Out.WriteString(m)
		}
		return nil
	case OpLoad:
		active, total := i.Load()
		req.Out.WriteDouble(float64(active))
		req.Out.WriteULongLong(total)
		return nil
	default:
		return orb.NewSystemException(orb.ExcBadOperation, 90, "no QoS op %q", req.Operation)
	}
}

// Mediator is the client-side balancer.
type Mediator struct {
	qos.BaseMediator
	// workers holds what is fixed per worker: its reference and its
	// binding — the one handed to the factory was negotiated with the
	// cluster reference's profile endpoint, further workers get their own
	// on first use. Releasing the stub's binding closes it, which releases
	// theirs.
	workers *qos.Members

	mu       sync.Mutex
	strategy string
	members  []string           // endpoints
	loads    map[string]float64 // endpoint → last reported active count
	sent     map[string]uint64  // endpoint → requests routed there
	rr       int
	rng      *rand.Rand
	// weighted round-robin state (smooth WRR): static weight and
	// floating current score per endpoint.
	weights map[string]int
	current map[string]int
}

var (
	_ qos.DeliveryMediator   = (*Mediator)(nil)
	_ qos.AdaptiveMediator   = (*Mediator)(nil)
	_ qos.ReleasableMediator = (*Mediator)(nil)
)

// NewMediator builds the balancing mediator: membership comes from the
// cluster reference's ordered-endpoints component.
func NewMediator(st *qos.Stub, b *qos.Binding) (*Mediator, error) {
	endpoints, err := st.Target().AlternateEndpoints()
	if err != nil {
		return nil, fmt.Errorf("loadbalance: reading endpoints: %w", err)
	}
	if len(endpoints) == 0 {
		endpoints = []string{st.Target().Profile.Addr()}
	}
	m := &Mediator{
		BaseMediator: qos.BaseMediator{Char: Name},
		workers:      qos.NewMembers(st, b),
		members:      endpoints,
		loads:        make(map[string]float64),
		sent:         make(map[string]uint64),
		rng:          rand.New(rand.NewSource(42)),
	}
	m.strategy = b.Contract.Text(ParamStrategy, StrategyRoundRobin)
	m.setWeights(b.Contract.Text(ParamWeights, ""))
	return m, nil
}

// Close implements qos.ReleasableMediator.
func (m *Mediator) Close() error { return m.workers.Close() }

// ContractChanged implements qos.AdaptiveMediator.
func (m *Mediator) ContractChanged(c *qos.Contract) error {
	m.mu.Lock()
	m.strategy = c.Text(ParamStrategy, StrategyRoundRobin)
	m.mu.Unlock()
	m.setWeights(c.Text(ParamWeights, ""))
	return nil
}

// setWeights parses the comma-separated weight list against the member
// order; invalid or missing entries weigh 1.
func (m *Mediator) setWeights(spec string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.weights = make(map[string]int, len(m.members))
	m.current = make(map[string]int, len(m.members))
	parts := strings.Split(spec, ",")
	for i, ep := range m.members {
		w := 1
		if i < len(parts) {
			if v, err := strconv.Atoi(strings.TrimSpace(parts[i])); err == nil && v > 0 {
				w = v
			}
		}
		m.weights[ep] = w
	}
}

// Members returns the current membership.
func (m *Mediator) Members() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.members...)
}

// Distribution reports how many requests were routed to each endpoint.
func (m *Mediator) Distribution() map[string]uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]uint64, len(m.sent))
	for k, v := range m.sent {
		out[k] = v
	}
	return out
}

// pick selects the next endpoint, excluding the given dead ones.
func (m *Mediator) pick(dead []string) (string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	alive := m.members
	if len(dead) > 0 {
		alive = make([]string, 0, len(m.members))
		for _, ep := range m.members {
			if !slices.Contains(dead, ep) {
				alive = append(alive, ep)
			}
		}
	}
	if len(alive) == 0 {
		return "", errors.New("loadbalance: no live members")
	}
	var ep string
	switch m.strategy {
	case StrategyRandom:
		ep = alive[m.rng.Intn(len(alive))]
	case StrategyLeastLoaded:
		// Scan from a rotating offset so equally loaded workers share
		// traffic instead of the first always winning ties.
		start := m.rr % len(alive)
		m.rr++
		ep = alive[start]
		best := m.loads[ep]
		for k := 1; k < len(alive); k++ {
			cand := alive[(start+k)%len(alive)]
			if l := m.loads[cand]; l < best {
				best, ep = l, cand
			}
		}
	case StrategyWeighted:
		// Smooth weighted round-robin: raise each candidate's current
		// score by its weight, pick the highest, then charge the pick
		// the total weight.
		total := 0
		best := math.MinInt
		for _, cand := range alive {
			w := m.weights[cand]
			if w <= 0 {
				w = 1
			}
			total += w
			m.current[cand] += w
			if m.current[cand] > best {
				best, ep = m.current[cand], cand
			}
		}
		m.current[ep] -= total
	default: // round-robin
		ep = alive[m.rr%len(alive)]
		m.rr++
	}
	m.sent[ep]++
	return ep, nil
}

// Deliver implements qos.DeliveryMediator: route to the chosen worker,
// fail over to the next when that one is unreachable or has lost its
// binding (the next call to it negotiates afresh), and absorb load reports.
func (m *Mediator) Deliver(ctx context.Context, inv *orb.Invocation, next qos.Next) (*orb.Outcome, error) {
	// The dead of this call: a stack array for the first few, so the
	// common call — nobody dead — allocates nothing for them.
	var deadBuf [4]string
	dead := deadBuf[:0]
	var lastErr error
	for {
		ep, err := m.pick(dead)
		if err != nil {
			break // every member tried
		}
		routed, err := m.workers.Route(ctx, inv, ep)
		var out *orb.Outcome
		if err == nil {
			out, err = next(ctx, routed)
			if out, err = m.workers.Settle(routed, out, err); err != nil && !qos.MemberFailure(err) {
				return nil, err
			}
		}
		if err != nil {
			dead = append(dead, ep)
			lastErr = err
			continue
		}
		m.noteLoad(ep, out.Contexts)
		return out, nil
	}
	if lastErr != nil {
		return nil, lastErr
	}
	return nil, orb.NewSystemException(orb.ExcTransient, 91, "no live workers")
}

func (m *Mediator) noteLoad(endpoint string, contexts giop.ServiceContextList) {
	data, ok := contexts.Get(scLoad)
	if !ok {
		return
	}
	d := cdr.NewDecoder(data, cdr.BigEndian)
	active, err := d.ReadDouble()
	if err != nil {
		return
	}
	m.mu.Lock()
	m.loads[endpoint] = active
	m.mu.Unlock()
}
