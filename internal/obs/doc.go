// Package obs is the observability layer of the MAQS reproduction: a
// lock-cheap metrics registry, distributed trace propagation in the W3C
// traceparent style, and a tail sampler that decides which traces to keep
// and keeps their spans in a bounded ring.
//
// Observability is itself a cross-cutting concern in the paper's sense
// (§3): it must see every stage of the invocation path — stub dispatch,
// mediator delegation, transport-chain modules, the wire, and the
// server-side prolog/servant/epilog bracket — without any of those
// stages knowing more than "there may be a span in my context". The
// package therefore exposes two deliberately small integration surfaces:
//
//   - a *Tracer whose StartSpan/StartRemote calls are nil-safe, so an
//     uninstrumented ORB pays one nil check per stage and nothing else;
//   - *Counter/*Gauge instruments and the log-bucketed *Histogram, resolved
//     once and then updated with a few atomic operations.
//
// Trace context travels between processes inside a dedicated GIOP
// service context (giop.SCTrace) whose payload is the ASCII traceparent
// rendering of the sending span — see SpanContext.Traceparent and
// ParseTraceparent. The package imports only cdr and the standard library,
// so every layer above cdr (giop, orb, qos, transport) can import it.
package obs
