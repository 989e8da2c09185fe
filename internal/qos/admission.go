package qos

import (
	"sync"
	"time"

	"maqs/internal/orb"
)

// Contract parameter names the admission mapping understands, alongside
// ContractMaxRTTMs (conformance.go). Both are optional: characteristics
// that do not negotiate them keep the base policy's bounds.
const (
	// ContractDispatchWorkers is the negotiated number of the
	// characteristic's requests the server handles at once.
	ContractDispatchWorkers = "dispatch_workers"
	// ContractQueueDepth is the negotiated bound on requests waiting at
	// the class's admission gate.
	ContractQueueDepth = "queue_depth"
)

// policyFromContract derives the dispatch admission policy of a QoS
// class from its negotiated contract, layered over base. This is the
// paper's separation made operational on the server's front door: the
// contract the client negotiated — not application code — decides how
// much dispatch capacity the class gets and when its requests are shed.
//
//   - max_rtt_ms bounds the queueing budget: a request that already
//     waited longer than the round-trip time the contract promises
//     cannot meet it and is shed instead of dispatched.
//   - dispatch_workers / queue_depth, when negotiated, size the class's
//     admission gate.
func policyFromContract(base orb.ClassPolicy, c *Contract) orb.ClassPolicy {
	p := base
	if w := c.Number(ContractDispatchWorkers, 0); w > 0 {
		p.Workers = int(w)
	}
	if d := c.Number(ContractQueueDepth, 0); d > 0 {
		p.QueueDepth = int(d)
	}
	if rtt := c.Number(ContractMaxRTTMs, 0); rtt > 0 {
		p.Deadline = time.Duration(rtt * float64(time.Millisecond))
	}
	return p
}

// AdmissionController maps QoS classes to dispatch policies for the
// ORB's admission control. It learns policies from negotiated contracts
// (the ServerSkeleton feeds it on every successful negotiation and
// renegotiation) and answers the ORB's per-class policy lookups; plug
// its Policy method into orb.Options.AdmissionPolicy.
//
// A class's effective policy is resolved by the ORB at the class's
// first request. Negotiation always precedes tagged traffic, so a
// characteristic's contract-derived policy is in place in time; later
// renegotiations refine the stored policy for classes the ORB has not
// materialised yet.
type AdmissionController struct {
	base orb.ClassPolicy

	mu      sync.RWMutex
	byClass map[string]orb.ClassPolicy
}

// NewAdmissionController returns a controller that answers base for
// every class until contracts teach it better.
func NewAdmissionController(base orb.ClassPolicy) *AdmissionController {
	return &AdmissionController{base: base, byClass: make(map[string]orb.ClassPolicy)}
}

// Policy implements the orb.Options.AdmissionPolicy contract.
func (a *AdmissionController) Policy(class string) orb.ClassPolicy {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if p, ok := a.byClass[class]; ok {
		return p
	}
	return a.base
}

// Observe folds a negotiated contract into the class policy map. The
// class name is the characteristic, matching the server's dispatch
// telemetry and admission classes.
func (a *AdmissionController) Observe(c *Contract) {
	if c == nil || c.Characteristic == "" {
		return
	}
	p := policyFromContract(a.base, c)
	a.mu.Lock()
	a.byClass[c.Characteristic] = p
	a.mu.Unlock()
}
