package main

// metricDef declares one metric of the benchmark. BENCHMARK.json at the
// repository root lists the same names, units, directions and bounds; a
// test keeps the two in step.
type metricDef struct {
	Name, Unit string
	// HigherBetter is the metric's direction.
	HigherBetter bool
	// Bound is the share of the baseline by which an end-to-end metric
	// may worsen before the change counts as a regression. Per-layer
	// metrics have none.
	Bound float64
}

// endToEnd are the metrics a user of the ORB would see, per workload.
// failed_frac is not among them because a metric that is 0 on every
// healthy run has no relative bound; failures are reported as the run's
// failed/attempted counts and make the run incorrect.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", HigherBetter: true, Bound: 0.20},
	{Name: "op_p50_us", Unit: "us", Bound: 0.20},
	{Name: "op_p99_us", Unit: "us", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Bound: 0.02},
	{Name: "alloc_bytes_per_op", Unit: "B", Bound: 0.05},
	{Name: "cpu_us_per_op", Unit: "us", Bound: 0.20},
	{Name: "wire_bytes_per_op", Unit: "B", Bound: 0.01},
	{Name: "rss_peak_mb", Unit: "MB", Bound: 0.20},
}

// perLayer are the metrics of single layers (layer = package name, the
// part of the metric name before the dot).
var perLayer = []metricDef{
	// Isolated ladder.
	{Name: "cdr.encode_ns", Unit: "ns"},
	{Name: "cdr.decode_ns", Unit: "ns"},
	{Name: "cdr.allocs", Unit: "count"},
	{Name: "giop.frame_write_ns", Unit: "ns"},
	{Name: "giop.frame_read_ns", Unit: "ns"},
	{Name: "giop.allocs", Unit: "count"},
	{Name: "ior.parse_ns", Unit: "ns"},
	{Name: "netsim.tcp_rtt_us", Unit: "us"},
	{Name: "orb.invoke_ns", Unit: "ns"},
	{Name: "orb.invoke_allocs", Unit: "count"},
	{Name: "orb.async_ns", Unit: "ns"},
	{Name: "orb.async_allocs", Unit: "count"},
	{Name: "qos.stub_ns", Unit: "ns"},
	{Name: "qos.stub_allocs", Unit: "count"},
	{Name: "qos.seam_ns", Unit: "ns"},
	{Name: "qos.seam_allocs", Unit: "count"},
	{Name: "qos.negotiate_ns", Unit: "ns"},
	{Name: "qos.negotiate_allocs", Unit: "count"},
	{Name: "transport.route_ns", Unit: "ns"},
	{Name: "transport.route_allocs", Unit: "count"},
	{Name: "characteristics.send_ns", Unit: "ns"},
	{Name: "characteristics.send_allocs", Unit: "count"},
	{Name: "characteristics.send_alloc_bytes", Unit: "B"},
	{Name: "characteristics.filter_ns", Unit: "ns"},
	{Name: "characteristics.filter_allocs", Unit: "count"},
	// Traced run: per-op median self times.
	{Name: "qos.call_us", Unit: "us"},
	{Name: "qos.mediator_us", Unit: "us"},
	{Name: "qos.client_self_us", Unit: "us"},
	{Name: "transport.module_self_us", Unit: "us"},
	{Name: "orb.client_self_us", Unit: "us"},
	{Name: "netsim.conn_roundtrip_us", Unit: "us"},
	{Name: "netsim.wire_us", Unit: "us"},
	{Name: "orb.server_residence_us", Unit: "us"},
	{Name: "orb.server_self_us", Unit: "us"},
	{Name: "transport.filter_us", Unit: "us"},
	{Name: "qos.skeleton_self_us", Unit: "us"},
	{Name: "qos.prolog_epilog_us", Unit: "us"},
	{Name: "bench.servant_us", Unit: "us"},
	{Name: "trace.residual_frac", Unit: "frac"},
	{Name: "trace.overhead_frac", Unit: "frac"},
	// Counts from an untraced window.
	{Name: "netsim.writes_per_op", Unit: "count"},
	{Name: "netsim.reads_per_op", Unit: "count"},
	{Name: "characteristics.wire_ratio", Unit: "ratio"},
	{Name: "proc_client.allocs_per_op", Unit: "count"},
	{Name: "proc_server.allocs_per_op", Unit: "count"},
	{Name: "proc_client.cpu_us_per_op", Unit: "us"},
	{Name: "proc_server.cpu_us_per_op", Unit: "us"},
	{Name: "proc_client.gc_per_s", Unit: "1/s"},
	{Name: "proc_server.gc_per_s", Unit: "1/s"},
	// Instrumentation price: a window with Options.Observability set.
	{Name: "obs.on_ops_per_s", Unit: "1/s", HigherBetter: true},
	{Name: "obs.on_allocs_per_op", Unit: "count"},
}

// measurement is one reported value. Spread is the relative quartile
// distance of the metric's within-run estimates (sub-windows, or repeated
// set-ups), where it has any; the comparator treats a change inside it as
// unresolved.
type measurement struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Spread float64 `json:"spread,omitempty"`
}

// metricSet maps metric names to measurements.
type metricSet map[string]measurement

// fill stores values under defs' units and reports the first declared
// metric that has no value.
func (m metricSet) fill(defs []metricDef, values map[string]float64, spreads map[string]float64) (missing string) {
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			if missing == "" {
				missing = d.Name
			}
			continue
		}
		m[d.Name] = measurement{Value: v, Unit: d.Unit, Spread: spreads[d.Name]}
	}
	return missing
}
