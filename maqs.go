// Package maqs is the public face of this MAQS reproduction: a generic,
// multi-category Quality-of-Service management framework for
// object-oriented middleware, after C. Becker and K. Geihs, "Quality of
// Service and Object-Oriented Middleware — Multiple Concerns and their
// Separation" (ICDCS 2001 workshops).
//
// The package re-exports the framework's building blocks and offers
// System, a convenience bundle wiring an ORB, its reflective QoS
// transport and a characteristic registry preloaded with the five
// characteristics of the paper's evaluation (availability through replica
// groups, load balancing, compression, encryption, actuality of data).
//
// A minimal QoS-enabled service:
//
//	sys, _ := maqs.NewSystem(maqs.Options{})
//	_ = sys.Listen("127.0.0.1:0")
//	skel := maqs.NewServerSkeleton(servant)
//	_ = skel.AddQoS(compressionImpl)
//	ref, _ := sys.ActivateQoS("svc", "IDL:demo/Svc:1.0", skel, info)
//
// and a client:
//
//	sys, _ := maqs.NewSystem(maqs.Options{})
//	stub := sys.Stub(ref)
//	binding, _ := stub.Negotiate(ctx, &maqs.Proposal{Characteristic: "Compression"})
//	out, _ := stub.Call(ctx, "fetch", args)
package maqs

import (
	"fmt"
	"log/slog"
	"time"

	"maqs/internal/characteristics/actuality"
	"maqs/internal/characteristics/compression"
	"maqs/internal/characteristics/encryption"
	"maqs/internal/characteristics/loadbalance"
	"maqs/internal/characteristics/replication"
	"maqs/internal/ior"
	"maqs/internal/netsim"
	"maqs/internal/obs"
	"maqs/internal/orb"
	"maqs/internal/qos"
	"maqs/internal/qos/transport"
	"maqs/internal/resilience"
)

// Re-exported core types. The aliases make the framework usable without
// reaching into internal packages.
type (
	// ORB is the object request broker.
	ORB = orb.ORB
	// IOR is an interoperable object reference.
	IOR = ior.IOR
	// QoSInfo advertises QoS capabilities inside an IOR.
	QoSInfo = ior.QoSInfo
	// Servant handles incoming requests.
	Servant = orb.Servant
	// ServerRequest is a request under dispatch.
	ServerRequest = orb.ServerRequest
	// Invocation is a client-side request.
	Invocation = orb.Invocation
	// Outcome is the result of an invocation.
	Outcome = orb.Outcome
	// Future is the rendezvous of an asynchronous invocation
	// (Stub.CallAsync, ORB.InvokeAsync); Wait, called once, collects the
	// reply.
	Future = orb.Future
	// SystemException is a broker-level failure.
	SystemException = orb.SystemException
	// UserException is an application-declared exception.
	UserException = orb.UserException

	// Stub is the QoS-aware client-side runtime.
	Stub = qos.Stub
	// Binding is a live QoS agreement.
	Binding = qos.Binding
	// Contract holds negotiated parameter values.
	Contract = qos.Contract
	// Term is one agreed parameter of a contract.
	Term = qos.Term
	// Proposal is a client's negotiation request.
	Proposal = qos.Proposal
	// ParamProposal is one requested parameter.
	ParamProposal = qos.ParamProposal
	// Offer is a server's capability statement.
	Offer = qos.Offer
	// ParamOffer is one offered parameter capability.
	ParamOffer = qos.ParamOffer
	// Value is a QoS parameter value.
	Value = qos.Value
	// Characteristic describes a QoS characteristic.
	Characteristic = qos.Characteristic
	// Mediator is the client-side QoS aspect.
	Mediator = qos.Mediator
	// Impl is the server-side QoS implementation.
	Impl = qos.Impl
	// ServerSkeleton wires QoS implementations around a servant.
	ServerSkeleton = qos.ServerSkeleton
	// Registry maps characteristic names to descriptors and mediators.
	Registry = qos.Registry
	// Observation is one measured invocation.
	Observation = qos.Observation

	// Transport is the reflective QoS transport of an ORB.
	Transport = transport.Transport
	// Module is a transport-layer QoS module.
	Module = transport.Module

	// Observability bundles the metrics registry, tracer, tail sampler
	// and flight recorder threaded through the invocation path (see
	// internal/obs).
	Observability = obs.Observability
	// ObservabilityConfig sizes an Observability bundle (the kept-span
	// ring) and sets its sampling policy for NewObservabilityWithConfig.
	ObservabilityConfig = obs.Config
	// MetricsRegistry is the lock-cheap metrics registry.
	MetricsRegistry = obs.Registry
	// SpanRecord is one finished span as the tail sampler keeps it.
	SpanRecord = obs.SpanRecord
	// FlightRecorder is the always-on bounded ring of per-invocation
	// records with anomaly-triggered dumps (see docs/OBSERVABILITY.md).
	FlightRecorder = obs.FlightRecorder
	// FlightRecord is one retained invocation record.
	FlightRecord = obs.FlightRecord
	// FlightDump is one frozen anomaly snapshot.
	FlightDump = obs.FlightDump
	// TailSampler buffers spans per trace and keeps interesting traces
	// (errors, retries, sheds, deadline misses, SLO-slow, anomalies) plus
	// a configurable fraction of healthy ones — all of them by default.
	TailSampler = obs.TailSampler
	// TailSamplingConfig sets the sampling policy via
	// ObservabilityConfig.TailSampling.
	TailSamplingConfig = obs.TailSamplingConfig

	// Network is the simulated network used for testing and experiments.
	Network = netsim.Network
	// Link describes simulated link characteristics.
	Link = netsim.Link

	// ResiliencePolicy configures client-side fault handling (retry,
	// backoff, circuit breaking) for Options.Resilience.
	ResiliencePolicy = resilience.Policy
	// RetryPolicy bounds per-invocation retries with backoff.
	RetryPolicy = resilience.RetryPolicy
	// BreakerPolicy shapes the per-endpoint circuit breaker.
	BreakerPolicy = resilience.BreakerPolicy
	// BreakerState is a circuit breaker state (closed/open/half-open).
	BreakerState = resilience.State
	// BreakerTransition is one observed breaker state change.
	BreakerTransition = resilience.Transition

	// FaultPlan is a deterministic fault-injection schedule for a
	// simulated Network (see Network.InstallFaults).
	FaultPlan = netsim.FaultPlan
	// FaultRule is one rule of a FaultPlan.
	FaultRule = netsim.FaultRule
	// FaultInjector executes an installed FaultPlan.
	FaultInjector = netsim.FaultInjector
	// FaultStats counts the faults an injector has fired.
	FaultStats = netsim.FaultStats

	// ClassPolicy bounds server-side dispatch for one QoS class
	// (workers, queue depth, deadline budget — see docs/ADMISSION.md).
	ClassPolicy = orb.ClassPolicy
	// AdmissionController maps QoS classes to dispatch policies learned
	// from negotiated contracts; plug its Policy method into
	// Options.AdmissionPolicy and hand it to ServerSkeleton.SetAdmission.
	AdmissionController = qos.AdmissionController

	// SLOEngine scores invocations against contract-derived objectives
	// and runs burn-rate alerting over rolling windows (see
	// docs/OBSERVABILITY.md).
	SLOEngine = qos.SLOEngine
	// SLOStatus is the /slo endpoint's JSON body.
	SLOStatus = qos.SLOStatus

	// Degrader walks a binding down its contract hierarchy's plan when
	// the service degrades, and back up on recovery; Stub.NegotiatePlan
	// returns one.
	Degrader = qos.Degrader
)

// Value constructors for proposals and contracts.
var (
	// Number wraps a numeric parameter value.
	Number = qos.Number
	// Text wraps a string parameter value.
	Text = qos.Text
	// Flag wraps a boolean parameter value.
	Flag = qos.Flag
	// NewNetwork constructs a simulated network.
	NewNetwork = netsim.NewNetwork
	// NewServerSkeleton wraps an application servant for QoS weaving.
	NewServerSkeleton = qos.NewServerSkeleton
	// ParseIOR parses a stringified object reference.
	ParseIOR = ior.Parse
	// NewObservability constructs a metrics + tracing + flight-recorder
	// bundle for Options.Observability.
	NewObservability = obs.New
	// NewObservabilityWithConfig constructs a bundle with an explicit
	// span-ring size or sampling policy.
	NewObservabilityWithConfig = obs.NewWithConfig
	// NewLeaf, NewBest and NewFallback build the contract hierarchy
	// Stub.NegotiatePlan binds: a proposal with its utility, alternatives
	// ranked by achieved utility, alternatives in the order given.
	NewLeaf     = qos.NewLeaf
	NewBest     = qos.NewBest
	NewFallback = qos.NewFallback
	// NewAdmissionController builds a contract-driven dispatch policy
	// source for Options.AdmissionPolicy.
	NewAdmissionController = qos.NewAdmissionController
)

// Circuit breaker states.
const (
	// BreakerClosed lets all invocations through.
	BreakerClosed = resilience.Closed
	// BreakerOpen rejects invocations without dialing.
	BreakerOpen = resilience.Open
	// BreakerHalfOpen admits a limited number of probes.
	BreakerHalfOpen = resilience.HalfOpen
)

// Fault kinds for FaultRule declarations.
const (
	// FaultDrop blackholes matching segments.
	FaultDrop = netsim.FaultDrop
	// FaultDelay adds latency (plus jitter) to matching segments.
	FaultDelay = netsim.FaultDelay
	// FaultCorrupt flips one byte of matching segments.
	FaultCorrupt = netsim.FaultCorrupt
	// FaultReset severs the connection carrying a matching segment.
	FaultReset = netsim.FaultReset
	// FaultPartition refuses dials and severs traffic between two hosts
	// for the rule's time window.
	FaultPartition = netsim.FaultPartition
)

// Value kinds for ParamOffer declarations.
const (
	// KindNumber marks numeric parameters.
	KindNumber = qos.KindNumber
	// KindString marks string parameters.
	KindString = qos.KindString
	// KindBool marks boolean parameters.
	KindBool = qos.KindBool
)

// Names of the standard characteristics (the paper's evaluation set).
const (
	// Availability masks server crashes with replica groups.
	Availability = replication.Name
	// LoadBalancing spreads load over worker groups.
	LoadBalancing = loadbalance.Name
	// Compression shrinks payloads for small-bandwidth channels.
	Compression = compression.Name
	// Encryption protects payload privacy.
	Encryption = encryption.Name
	// Actuality bounds the staleness of results.
	Actuality = actuality.Name
)

// Options configures a System.
type Options struct {
	// Transport supplies dialing and listening; defaults to TCP. Use a
	// *Network (or Network.Host) for simulated deployments.
	Transport netsim.Transport
	// RequestTimeout bounds synchronous invocations (default 10s).
	RequestTimeout time.Duration
	// ConnsPerEndpoint stripes client traffic over up to this many
	// connections per server endpoint (least-pending pick), so highly
	// concurrent callers do not serialise on a single connection's write
	// path. 0 or 1 keeps one multiplexed connection per endpoint (see
	// docs/PERFORMANCE.md).
	ConnsPerEndpoint int
	// PipelineDepth caps reply-expecting requests in flight per
	// connection (per stripe member): senders -- synchronous and
	// asynchronous alike -- block once the window is full, so pipelined
	// clients exert backpressure instead of queueing unboundedly. 0
	// leaves the in-flight window unbounded (see docs/PERFORMANCE.md).
	PipelineDepth int
	// AdmissionPolicy bounds server-side dispatch per QoS class —
	// typically an AdmissionController's Policy method, which derives
	// policies from negotiated contracts. A class whose policy has
	// Workers <= 0 is unbounded, as is every class when this is nil (see
	// docs/ADMISSION.md).
	AdmissionPolicy func(class string) ClassPolicy
	// Logger receives diagnostics (default: discard).
	Logger *slog.Logger
	// SkipStandardModules leaves the QoS transport without the standard
	// module factories (flate, secure).
	SkipStandardModules bool
	// Observability, when set, threads a metrics registry and tracer
	// through the system's invocation path: every server dispatch and
	// every Stub call is counted, timed and traced. Share one bundle
	// between client and server Systems of a process to keep complete
	// traces in one place. Nil keeps the fast uninstrumented path.
	Observability *obs.Observability
	// Resilience, when set, installs client-side fault handling on the
	// ORB: per-invocation retry with exponential backoff and a circuit
	// breaker per endpoint (see docs/RESILIENCE.md). Nil disables both.
	Resilience *resilience.Policy
}

// System bundles one ORB with its QoS transport and characteristic
// registry: everything one process needs to act as a MAQS client, server
// or both.
type System struct {
	// ORB is the underlying broker.
	ORB *orb.ORB
	// Transport is the reflective QoS transport installed on the ORB.
	Transport *transport.Transport
	// Registry holds the registered QoS characteristics.
	Registry *qos.Registry
	// Observability is the bundle from Options.Observability, or nil.
	Observability *obs.Observability
	// SLO is the contract-driven SLO engine, wired to the bundle's
	// registry, flight recorder and /slo debug page. Nil when the system
	// is not observable (a nil engine is a safe no-op).
	SLO *qos.SLOEngine
}

// NewSystem builds a System: ORB, QoS transport (router + command
// handler + filters installed), and a registry preloaded with the
// standard characteristics.
func NewSystem(opts Options) (*System, error) {
	o := orb.New(orb.Options{
		Transport:        opts.Transport,
		RequestTimeout:   opts.RequestTimeout,
		ConnsPerEndpoint: opts.ConnsPerEndpoint,
		PipelineDepth:    opts.PipelineDepth,
		AdmissionPolicy:  opts.AdmissionPolicy,
		Logger:           opts.Logger,
		Observability:    opts.Observability,
		Resilience:       opts.Resilience,
	})
	t := transport.Install(o)
	registry := qos.NewRegistry()
	sys := &System{ORB: o, Transport: t, Registry: registry, Observability: opts.Observability}
	if b := opts.Observability; b != nil {
		// Readiness checks for the /ready endpoint: breaker health (a
		// system with an open breaker is degraded, not ready) and a
		// bindings summary for operators.
		b.SetReadiness("breakers", func() (bool, string) {
			g := o.Breakers()
			if g == nil {
				return true, "resilience disabled"
			}
			open := 0
			endpoints := g.Endpoints()
			for _, ep := range endpoints {
				if g.Get(ep).State() == resilience.Open {
					open++
				}
			}
			if open > 0 {
				return false, fmt.Sprintf("%d of %d endpoint breakers open", open, len(endpoints))
			}
			return true, fmt.Sprintf("%d endpoint breakers closed", len(endpoints))
		})
		b.SetReadiness("bindings", func() (bool, string) {
			n := b.Registry.Gauge("maqs_client_bindings").Value()
			return true, fmt.Sprintf("%d QoS bindings negotiated", n)
		})
		sys.SLO = qos.NewSLOEngine(b.Registry, b.Flight)
		b.SetDebugPage("/slo", func() any { return sys.SLO.Status() })
		// Contract-derived latency objectives double as the tail sampler's
		// per-class slow-trace thresholds, so "slow" means "in SLO
		// jeopardy", not an arbitrary constant.
		sys.SLO.SetLatencySink(b.Sampler.SetSlowThreshold)
	}
	if !opts.SkipStandardModules {
		if err := compression.RegisterModule(t); err != nil {
			return nil, fmt.Errorf("maqs: %w", err)
		}
		if err := encryption.RegisterModule(t); err != nil {
			return nil, fmt.Errorf("maqs: %w", err)
		}
	}
	for _, register := range []func(*qos.Registry) error{
		replication.Register,
		loadbalance.Register,
		compression.Register,
		encryption.Register,
		actuality.Register,
	} {
		if err := register(registry); err != nil {
			return nil, fmt.Errorf("maqs: %w", err)
		}
	}
	return sys, nil
}

// Listen binds the server side of the system.
func (s *System) Listen(addr string) error { return s.ORB.Listen(addr) }

// Shutdown stops the system.
func (s *System) Shutdown() { s.ORB.Shutdown() }

// Activate registers a servant and returns its reference.
func (s *System) Activate(key, typeID string, servant orb.Servant) (*ior.IOR, error) {
	return s.ORB.Adapter().Activate(key, typeID, servant)
}

// ActivateQoS registers a QoS-aware servant; the reference advertises the
// supported characteristics and modules.
func (s *System) ActivateQoS(key, typeID string, servant orb.Servant, info ior.QoSInfo) (*ior.IOR, error) {
	return s.ORB.Adapter().ActivateQoS(key, typeID, servant, info)
}

// Stub wraps a reference for QoS-aware invocation against this system's
// registry. When the system is observable, the stub is created with a
// metrics observer and an SLO-engine observer (which also scores the
// contract's max_rtt_ms bound) already attached; stack a Degrader's
// WatchSLO(s.SLO) or a probe of your own on top with AddObserver.
func (s *System) Stub(ref *ior.IOR) *qos.Stub {
	stub := qos.NewStubWithRegistry(s.ORB, ref, s.Registry)
	if s.Observability != nil {
		stub.AddObserver(qos.MetricsObserver(s.Observability.Registry))
		stub.AddObserver(s.SLO.ObserverForStub(stub))
	}
	return stub
}

// LoadModule loads a QoS transport module locally (both peers of a
// module-backed characteristic must load it).
func (s *System) LoadModule(name string, config map[string]string) error {
	return s.Transport.Load(name, config)
}
