package qos

import "maqs/internal/obs"

// MetricsObserver returns an Observer feeding client-side invocation
// metrics into reg, the only writer of maqs_client_*: request/error
// counters, payload byte counters and the round-trip latency histogram
// (overall and per class). Instruments are resolved once here,
// so the per-observation cost is a handful of atomic updates. Attach it
// with Stub.AddObserver so it coexists with the SLO engine's observer
// (maqs.System attaches both automatically when observability is enabled).
func MetricsObserver(reg *obs.Registry) Observer {
	requests := reg.Counter("maqs_client_requests_total")
	errors := reg.Counter("maqs_client_errors_total")
	reqBytes := reg.Counter("maqs_client_request_bytes_total")
	repBytes := reg.Counter("maqs_client_reply_bytes_total")
	rtt := reg.Histogram("maqs_client_rtt_seconds", nil)
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
		// The per-class cell, created on first observation of each
		// characteristic ("none" for unbound calls): a registry lookup that
		// allocates nothing. Cardinality is the set of negotiated
		// characteristics — a handful by construction.
		class := o.Characteristic
		if class == "" {
			class = "none"
		}
		reg.Histogram("maqs_client_rtt_seconds", nil, "class", class).ObserveExemplar(o.RTT, o.TraceID, o.SpanID)
	}
}
