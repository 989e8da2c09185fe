package accounting

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"maqs/internal/giop"
	"maqs/internal/orb"
)

// Usage accumulates the consumption of one binding.
type Usage struct {
	// Characteristic of the binding.
	Characteristic string
	// Requests counts attributed requests.
	Requests uint64
	// BytesIn and BytesOut count request and reply payload bytes.
	BytesIn, BytesOut uint64
	// Busy accumulates servant processing time.
	Busy time.Duration
	// FirstSeen and LastSeen bound the usage period.
	FirstSeen, LastSeen time.Time
}

// Tariff prices usage of one characteristic.
type Tariff struct {
	// PerRequest is charged for every request.
	PerRequest float64
	// PerKiB is charged per 1024 bytes in either direction.
	PerKiB float64
	// PerBusySecond is charged per second of servant processing time.
	PerBusySecond float64
}

// Cost prices a usage record.
func (t Tariff) Cost(u Usage) float64 {
	return t.PerRequest*float64(u.Requests) +
		t.PerKiB*float64(u.BytesIn+u.BytesOut)/1024 +
		t.PerBusySecond*u.Busy.Seconds()
}

// Meter is the measuring filter plus the ledger of usage per binding.
type Meter struct {
	mu      sync.Mutex
	usage   map[string]*Usage // by binding ID
	tariffs map[string]Tariff // by characteristic
	started map[*orb.ServerRequest]time.Time
	clock   func() time.Time
}

var _ orb.IncomingFilter = (*Meter)(nil)

// NewMeter constructs an empty meter.
func NewMeter() *Meter {
	return &Meter{
		usage:   make(map[string]*Usage),
		tariffs: make(map[string]Tariff),
		started: make(map[*orb.ServerRequest]time.Time),
		clock:   time.Now,
	}
}

// SetTariff prices a characteristic's usage.
func (m *Meter) SetTariff(characteristic string, t Tariff) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tariffs[characteristic] = t
}

// Inbound implements orb.IncomingFilter.
func (m *Meter) Inbound(req *orb.ServerRequest) error {
	tag, tagged, err := req.QoSTag()
	if err != nil || !tagged {
		return nil // untagged traffic is not accounted
	}
	now := m.clock()
	m.mu.Lock()
	defer m.mu.Unlock()
	u, ok := m.usage[tag.BindingID]
	if !ok {
		u = &Usage{Characteristic: tag.Characteristic, FirstSeen: now}
		m.usage[tag.BindingID] = u
	}
	u.Requests++
	u.BytesIn += uint64(len(req.Args))
	u.LastSeen = now
	m.started[req] = now
	return nil
}

// Outbound implements orb.IncomingFilter.
func (m *Meter) Outbound(req *orb.ServerRequest, status giop.ReplyStatus, body []byte) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	start, ok := m.started[req]
	if !ok {
		return body, nil
	}
	delete(m.started, req)
	tag, tagged, err := req.QoSTag()
	if err != nil || !tagged {
		return body, nil
	}
	if u, ok := m.usage[tag.BindingID]; ok {
		u.BytesOut += uint64(len(body))
		u.Busy += m.clock().Sub(start)
	}
	return body, nil
}

// UsageOf snapshots the usage of one binding.
func (m *Meter) UsageOf(bindingID string) (Usage, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	u, ok := m.usage[bindingID]
	if !ok {
		return Usage{}, false
	}
	return *u, true
}

// Bill prices the usage of one binding against its characteristic's
// tariff.
func (m *Meter) Bill(bindingID string) (float64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	u, ok := m.usage[bindingID]
	if !ok {
		return 0, fmt.Errorf("accounting: no usage for binding %q", bindingID)
	}
	t, ok := m.tariffs[u.Characteristic]
	if !ok {
		return 0, fmt.Errorf("accounting: no tariff for characteristic %q", u.Characteristic)
	}
	return t.Cost(*u), nil
}

// Statement is one line of an account statement.
type Statement struct {
	BindingID string
	Usage     Usage
	Cost      float64
}

// Statements lists all bindings with priced usage, sorted by binding ID.
// Bindings without a tariff are listed at cost zero.
func (m *Meter) Statements() []Statement {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Statement, 0, len(m.usage))
	for id, u := range m.usage {
		s := Statement{BindingID: id, Usage: *u}
		if t, ok := m.tariffs[u.Characteristic]; ok {
			s.Cost = t.Cost(*u)
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].BindingID < out[j].BindingID })
	return out
}

// Reset clears the ledger (e.g. after invoicing a period).
func (m *Meter) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.usage = make(map[string]*Usage)
}
