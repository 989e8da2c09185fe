package actuality

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sync"
	"time"

	"maqs/internal/giop"
	"maqs/internal/orb"
	"maqs/internal/qos"
)

// Name is the characteristic name.
const Name = "Actuality"

// Parameter names.
const (
	// ParamMaxAgeMS is the maximum acceptable result age in
	// milliseconds.
	ParamMaxAgeMS = "max_age_ms"
	// ParamScope selects which operations are cached: "reads" caches
	// operations with read-ish names, "all" caches everything.
	ParamScope = "scope"
)

// Scope values.
const (
	ScopeReads = "reads"
	ScopeAll   = "all"
)

// QoS operations of the characteristic.
const (
	// OpInvalidate drops all cached state server-side (bumps the data
	// version so clients refetch).
	OpInvalidate = "actuality_invalidate"
	// OpVersion returns the server's current data version.
	OpVersion = "actuality_version"
)

// Describe returns the characteristic descriptor.
func Describe() *qos.Characteristic {
	return &qos.Characteristic{
		Name:     Name,
		Category: qos.CategoryTimeliness,
		Params: []qos.ParameterDecl{
			{Name: ParamMaxAgeMS, Kind: qos.KindNumber, Default: qos.Number(1000)},
			{Name: ParamScope, Kind: qos.KindString, Default: qos.Text(ScopeReads)},
		},
		Operations: []string{OpInvalidate, OpVersion},
	}
}

// Register adds the characteristic with its caching mediator factory.
func Register(r *qos.Registry) error {
	err := r.Register(Describe(), func(st *qos.Stub, b *qos.Binding) (qos.Mediator, error) {
		return NewMediator(b.Contract), nil
	})
	if err != nil {
		return fmt.Errorf("actuality: %w", err)
	}
	return nil
}

// Impl is the server-side implementation: it tracks a data version that
// explicit invalidation bumps, letting epilogs stamp replies.
type Impl struct {
	qos.BaseImpl
	mu      sync.Mutex
	version uint64
}

// NewImpl constructs the server-side implementation. maxAgeCeiling bounds
// the oldest data the server is willing to let clients contract for.
func NewImpl(capacity int, maxAgeCeiling time.Duration) *Impl {
	impl := &Impl{}
	impl.Desc = Describe()
	impl.Capability = &qos.Offer{
		Characteristic: Name,
		Capacity:       capacity,
		Params: []qos.ParamOffer{
			{Name: ParamMaxAgeMS, Kind: qos.KindNumber, Min: 0,
				Max: float64(maxAgeCeiling.Milliseconds()), Default: qos.Number(1000)},
			{Name: ParamScope, Kind: qos.KindString,
				Choices: []string{ScopeReads, ScopeAll}, Default: qos.Text(ScopeReads)},
		},
	}
	return impl
}

// Invalidate bumps the data version (application code calls this when the
// underlying data changes out of band).
func (i *Impl) Invalidate() {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.version++
}

// Version returns the current data version.
func (i *Impl) Version() uint64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.version
}

// scVersion is the reply service context carrying the data version.
const scVersion uint32 = 0x4D515320

// Epilog stamps successful replies with the current data version so
// mediators can drop stale cache entries eagerly.
func (i *Impl) Epilog(req *orb.ServerRequest, b *qos.Binding, invokeErr error) error {
	if invokeErr != nil {
		return nil
	}
	var buf [8]byte
	v := i.Version()
	for j := 0; j < 8; j++ {
		buf[j] = byte(v >> (56 - 8*j))
	}
	req.OutContexts = req.OutContexts.With(scVersion, buf[:])
	return nil
}

// QoSOperation serves the characteristic's management operations.
func (i *Impl) QoSOperation(req *orb.ServerRequest, b *qos.Binding) error {
	switch req.Operation {
	case OpInvalidate:
		i.Invalidate()
		return nil
	case OpVersion:
		req.Out.WriteULongLong(i.Version())
		return nil
	default:
		return orb.NewSystemException(orb.ExcBadOperation, 80, "no QoS op %q", req.Operation)
	}
}

// cacheEntry is one cached reply. The outcome is kept by value and every
// hit gets its own copy: an Outcome's decoder lives in the Outcome, so
// handing one to several readers would have them share a read position.
type cacheEntry struct {
	outcome orb.Outcome
	at      time.Time
	version uint64
}

// CacheStats reports mediator effectiveness.
type CacheStats struct {
	// Hits were served locally; Misses went to the server.
	Hits, Misses uint64
	// Evictions counts version-based drops.
	Evictions uint64
}

// Mediator is the caching mediator.
type Mediator struct {
	qos.BaseMediator

	mu      sync.Mutex
	maxAge  time.Duration
	scope   string
	cache   map[[32]byte]cacheEntry
	version uint64
	stats   CacheStats
	// now is the clock, replaceable in tests.
	now func() time.Time
}

var (
	_ qos.DeliveryMediator = (*Mediator)(nil)
	_ qos.AdaptiveMediator = (*Mediator)(nil)
)

// NewMediator builds the caching mediator from the negotiated contract.
func NewMediator(c *qos.Contract) *Mediator {
	m := &Mediator{
		BaseMediator: qos.BaseMediator{Char: Name},
		cache:        make(map[[32]byte]cacheEntry),
		now:          time.Now,
	}
	m.applyContract(c)
	return m
}

func (m *Mediator) applyContract(c *qos.Contract) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.maxAge = time.Duration(c.Number(ParamMaxAgeMS, 1000)) * time.Millisecond
	m.scope = c.Text(ParamScope, ScopeReads)
}

// ContractChanged implements qos.AdaptiveMediator.
func (m *Mediator) ContractChanged(c *qos.Contract) error {
	m.applyContract(c)
	return nil
}

// Stats snapshots cache effectiveness.
func (m *Mediator) Stats() CacheStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// cacheable decides whether an operation's results may be served stale.
func (m *Mediator) cacheable(op string) bool {
	m.mu.Lock()
	scope := m.scope
	m.mu.Unlock()
	if scope == ScopeAll {
		return true
	}
	for _, prefix := range []string{"get", "read", "fetch", "list", "query"} {
		if len(op) >= len(prefix) && op[:len(prefix)] == prefix {
			return true
		}
	}
	return false
}

func cacheKey(op string, args []byte) [32]byte {
	h := sha256.New()
	h.Write([]byte(op))
	h.Write([]byte{0})
	h.Write(args)
	var k [32]byte
	copy(k[:], h.Sum(nil))
	return k
}

// Deliver implements qos.DeliveryMediator: serve from cache while fresh,
// refresh from the server otherwise, and track the server data version.
func (m *Mediator) Deliver(ctx context.Context, inv *orb.Invocation, next qos.Next) (*orb.Outcome, error) {
	if !m.cacheable(inv.Operation) {
		return next(ctx, inv)
	}
	key := cacheKey(inv.Operation, inv.Args)
	now := m.now()

	m.mu.Lock()
	entry, ok := m.cache[key]
	fresh := ok && now.Sub(entry.at) <= m.maxAge && entry.version == m.version
	if fresh {
		m.stats.Hits++
		m.mu.Unlock()
		hit := entry.outcome
		return &hit, nil
	}
	m.stats.Misses++
	m.mu.Unlock()

	out, err := next(ctx, inv)
	if err != nil {
		return nil, err
	}
	if out.Status != giop.ReplyNoException {
		return out, nil // never cache exceptions
	}
	version := m.versionFrom(out.Contexts)
	m.mu.Lock()
	if version > m.version {
		// Server data moved on: every older entry is stale.
		m.version = version
		for k, e := range m.cache {
			if e.version < version {
				delete(m.cache, k)
				m.stats.Evictions++
			}
		}
	}
	m.cache[key] = cacheEntry{outcome: *out, at: m.now(), version: version}
	m.mu.Unlock()
	return out, nil
}

func (m *Mediator) versionFrom(contexts giop.ServiceContextList) uint64 {
	data, ok := contexts.Get(scVersion)
	if !ok || len(data) != 8 {
		return 0
	}
	var v uint64
	for _, b := range data {
		v = v<<8 | uint64(b)
	}
	return v
}

// Flush drops all cached entries (e.g. after an explicit invalidate).
func (m *Mediator) Flush() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cache = make(map[[32]byte]cacheEntry)
}
