package qos

import (
	"fmt"
	"sync"

	"maqs/internal/obs"
)

// MetricsObserver returns an Observer feeding client-side invocation
// metrics into reg, the only writer of maqs_client_*: request/error
// counters, payload byte counters and the round-trip latency histogram
// (overall and per class). Instruments are resolved once here,
// so the per-observation cost is a handful of atomic updates. Attach it
// with Stub.AddObserver so it coexists with a qos.Monitor (maqs.System
// attaches it automatically when observability is enabled).
func MetricsObserver(reg *obs.Registry) Observer {
	requests := reg.Counter("maqs_client_requests_total")
	errors := reg.Counter("maqs_client_errors_total")
	reqBytes := reg.Counter("maqs_client_request_bytes_total")
	repBytes := reg.Counter("maqs_client_reply_bytes_total")
	rtt := reg.Histogram("maqs_client_rtt_seconds", nil)
	// Per-class RTT histograms, created on first observation of each
	// characteristic ("none" for unbound calls). Cardinality is the set
	// of negotiated characteristics — a handful by construction.
	var classRTT sync.Map // string -> *obs.Histogram
	return func(o Observation) {
		requests.Inc()
		if o.Err != nil {
			errors.Inc()
		}
		reqBytes.Add(uint64(o.ReqBytes))
		repBytes.Add(uint64(o.RepBytes))
		// Traced observations leave an exemplar on the bucket they land
		// in, so a tail-latency outlier on /metrics links straight to its
		// trace and flight record.
		rtt.ObserveExemplar(o.RTT, o.TraceID, o.SpanID)
		class := o.Characteristic
		if class == "" {
			class = "none"
		}
		h, ok := classRTT.Load(class)
		if !ok {
			h, _ = classRTT.LoadOrStore(class,
				reg.Histogram(fmt.Sprintf("maqs_client_rtt_seconds{class=%q}", class), nil))
		}
		h.(*obs.Histogram).ObserveExemplar(o.RTT, o.TraceID, o.SpanID)
	}
}
