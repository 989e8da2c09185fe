// Package loadgen is the open-loop load harness: it drives scheduled
// traffic — Poisson or bursty arrivals, heavy-tailed payload mixes,
// many concurrent client identities per QoS class — against a maqs
// server and measures latency without coordinated omission.
//
// The central discipline is *open-loop measurement*: every request has
// an intended send time drawn from the arrival process before the run
// starts reacting to the server, and its latency is measured from that
// intended time. A closed-loop harness (issue, wait, issue) silently
// stops sampling exactly when the server stalls — the coordinated
// omission that makes overloaded systems look healthy. Here a stalled
// server accumulates scheduled-but-unsent requests whose eventual
// latencies include their queueing delay, so p99/p99.9 describe what a
// real independent client population would have experienced.
//
// Measurements land in obs.Histogram, the log-bucketed HDR-style
// histogram every latency series of the tree records into, with ≈1.6%
// relative quantile resolution from nanoseconds to hours. Reports render
// per QoS class —
// p50/p90/p99/p99.9/max, windowed throughput, error/retry/degrade
// counts — and export in the BENCH_*.json trajectory format through
// internal/benchfmt, shared with cmd/benchjson.
//
// The report also covers the server side of overload: when
// Config.ServerMetrics points at the target's metrics registry (the
// -self server wires this automatically), the admission-control
// counters — requests admitted, requests shed, per-class and
// per-reason (docs/ADMISSION.md) — are harvested into the report and
// the BENCH output. Against a bounded-dispatch server, overload reads
// as shed counts plus flat percentiles for the admitted traffic,
// rather than percentiles inflated by unbounded queueing.
//
// cmd/maqs-loadgen is the CLI; docs/LOADGEN.md describes the arrival
// models, the correction rationale, the report schema and how to add
// scenarios.
package loadgen
