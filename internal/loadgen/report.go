package loadgen

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"maqs/internal/benchfmt"
	"maqs/internal/obs"
	"maqs/internal/qos"
)

// LatencySummary is the percentile digest of one histogram. Durations
// are nanoseconds, CO-corrected when taken from the corrected histogram.
type LatencySummary struct {
	Count  uint64 `json:"count"`
	P50Ns  int64  `json:"p50_ns"`
	P90Ns  int64  `json:"p90_ns"`
	P99Ns  int64  `json:"p99_ns"`
	P999Ns int64  `json:"p99_9_ns"`
	MaxNs  int64  `json:"max_ns"`
	MeanNs int64  `json:"mean_ns"`
}

func summarize(h *obs.Histogram) LatencySummary {
	return LatencySummary{
		Count:  h.Count(),
		P50Ns:  int64(h.Quantile(0.5)),
		P90Ns:  int64(h.Quantile(0.9)),
		P99Ns:  int64(h.Quantile(0.99)),
		P999Ns: int64(h.Quantile(0.999)),
		MaxNs:  int64(h.Quantile(1)),
		MeanNs: int64(h.Mean()),
	}
}

// ClassReport is the outcome of one QoS class.
type ClassReport struct {
	Class          string `json:"class"`
	Operation      string `json:"operation"`
	Mode           string `json:"mode,omitempty"`
	Characteristic string `json:"characteristic,omitempty"`
	Scheduled      uint64 `json:"scheduled"`
	Completed      uint64 `json:"completed"`
	Errors         uint64 `json:"errors"`
	// Retries and Degrades come from the class's own metrics registry
	// (each class runs its own ORB), so the attribution is exact.
	Retries  uint64            `json:"retries"`
	Degrades uint64            `json:"degrades"`
	ErrKinds map[string]uint64 `json:"error_kinds,omitempty"`
	// ThroughputRPS is completed requests over the run's wall clock.
	ThroughputRPS float64 `json:"throughput_rps"`
	// Latency is CO-correct: measured from each request's intended
	// schedule time, so queueing under overload is included.
	Latency LatencySummary `json:"latency"`
	// Service is measured from the actual send — the uncorrected view; a
	// wide gap to Latency is the signature of a backlogged schedule.
	Service LatencySummary `json:"service"`
	// SLO is the class's final objective state from its SLO engine:
	// burn rates, alert state and remaining error budget per objective.
	SLO []qos.SLOObjectiveStatus `json:"slo,omitempty"`
	// Trace is the class's tail-sampler tally (kept/dropped traces by
	// reason, pending-table evictions) when tail sampling was enabled.
	Trace *obs.TailSamplerStats `json:"trace,omitempty"`
}

// Report is the outcome of a full run.
type Report struct {
	Seed            uint64        `json:"seed"`
	DurationSeconds float64       `json:"duration_seconds"`
	TotalScheduled  uint64        `json:"total_scheduled"`
	TotalCompleted  uint64        `json:"total_completed"`
	TotalErrors     uint64        `json:"total_errors"`
	Classes         []ClassReport `json:"classes"`
	// ServerAdmitted and TotalShed mirror the target server's admission
	// counters when Config.ServerMetrics is wired (self mode); ServerSheds
	// breaks sheds down by labeled counter (class and reason). Overload
	// shows up here as shed counts, never as unbounded queue growth.
	ServerAdmitted uint64            `json:"server_admitted,omitempty"`
	TotalShed      uint64            `json:"server_shed,omitempty"`
	ServerSheds    map[string]uint64 `json:"server_sheds,omitempty"`
	// TraceKept/TraceDropped sum the per-class tail-sampler verdicts
	// when tail sampling was on (zero and omitted otherwise).
	TraceKept    uint64 `json:"trace_kept,omitempty"`
	TraceDropped uint64 `json:"trace_dropped,omitempty"`
}

// sum totals one reason-keyed tally.
func sum(m map[string]uint64) uint64 {
	var t uint64
	for _, v := range m {
		t += v
	}
	return t
}

func (r *Runner) buildReport(elapsed time.Duration) *Report {
	rep := &Report{Seed: r.cfg.Seed, DurationSeconds: elapsed.Seconds()}
	for _, c := range r.classes {
		cr := c.report(elapsed)
		rep.TotalScheduled += cr.Scheduled
		rep.TotalCompleted += cr.Completed
		rep.TotalErrors += cr.Errors
		if cr.Trace != nil {
			rep.TraceKept += sum(cr.Trace.Kept)
			rep.TraceDropped += sum(cr.Trace.Dropped)
		}
		rep.Classes = append(rep.Classes, cr)
	}
	rep.harvestServer(r.cfg.ServerMetrics)
	return rep
}

// harvestServer folds the target server's admission counters into the
// report. The unlabeled totals map onto ServerAdmitted/TotalShed; every
// labeled maqs_server_shed_total{...} series is carried verbatim so the
// per-class, per-reason breakdown survives into BENCH_*.json.
func (rep *Report) harvestServer(reg *obs.Registry) {
	if reg == nil {
		return
	}
	for name, v := range reg.Snapshot().Counters {
		switch {
		case name == "maqs_server_admitted_total":
			rep.ServerAdmitted = v
		case name == "maqs_server_shed_total":
			rep.TotalShed = v
		case v > 0 && strings.HasPrefix(name, "maqs_server_shed_total{"):
			if rep.ServerSheds == nil {
				rep.ServerSheds = map[string]uint64{}
			}
			rep.ServerSheds[name] = v
		}
	}
}

func (c *classRun) report(elapsed time.Duration) ClassReport {
	cr := ClassReport{
		Class:          c.scn.Class,
		Operation:      c.scn.Operation,
		Mode:           c.scn.Mode,
		Characteristic: c.scn.Characteristic,
		Scheduled:      c.scheduled.Load(),
		Completed:      c.completed.Load(),
		Errors:         c.failed.Load(),
		Retries:        c.bundle.Registry.Counter("maqs_client_retries_total").Value(),
		Degrades:       c.bundle.Registry.Counter("maqs_qos_degradations_total").Value(),
		Latency:        summarize(&c.corrected),
		Service:        summarize(&c.service),
		SLO:            c.sloObjectives(),
	}
	if c.bundle.Sampler != nil {
		st := c.bundle.Sampler.Stats()
		cr.Trace = &st
	}
	span := c.elapsed
	if span <= 0 {
		span = elapsed
	}
	if secs := span.Seconds(); secs > 0 {
		cr.ThroughputRPS = float64(cr.Completed) / secs
	}
	c.errMu.Lock()
	if len(c.errKinds) > 0 {
		cr.ErrKinds = make(map[string]uint64, len(c.errKinds))
		for k, v := range c.errKinds {
			cr.ErrKinds[k] = v
		}
	}
	c.errMu.Unlock()
	return cr
}

// sloObjectives extracts the class's own objectives from its SLO engine
// (the engine may also hold contract-derived state keyed by the
// characteristic name; only the scenario class's view is reported).
func (c *classRun) sloObjectives() []qos.SLOObjectiveStatus {
	if c.sys.SLO == nil {
		return nil
	}
	for _, cls := range c.sys.SLO.Status().Classes {
		if cls.Class == c.scn.Class {
			return cls.Objectives
		}
	}
	return nil
}

// SLOStatus merges every class's scenario-scoped SLO view into one
// document — the /slo debug page of a loadgen run.
func (r *Runner) SLOStatus() qos.SLOStatus {
	st := qos.SLOStatus{Classes: []qos.SLOClassStatus{}}
	for _, c := range r.classes {
		if objs := c.sloObjectives(); objs != nil {
			st.Classes = append(st.Classes, qos.SLOClassStatus{Class: c.scn.Class, Objectives: objs})
		}
	}
	return st
}

// KeptSpans returns the spans retained by every class's collector,
// keyed by class. With tail sampling enabled these are exactly the
// spans of kept traces; without, the ring's most recent spans. The
// -trace-snapshot artifact of cmd/maqs-loadgen serialises this.
func (r *Runner) KeptSpans() map[string][]obs.SpanRecord {
	out := map[string][]obs.SpanRecord{}
	for _, c := range r.classes {
		if spans := c.bundle.Collector.Snapshot(); len(spans) > 0 {
			out[c.scn.Class] = spans
		}
	}
	return out
}

// BenchDoc renders the report as a BENCH_*.json trajectory point, one
// result family per class, sharing the format (and the stamped context)
// with cmd/benchjson.
func (rep *Report) BenchDoc() *benchfmt.Doc {
	doc := benchfmt.NewDoc()
	doc.Context["goos"] = runtime.GOOS
	doc.Context["goarch"] = runtime.GOARCH
	doc.Context["cpus"] = strconv.Itoa(runtime.NumCPU())
	doc.Context["seed"] = strconv.FormatUint(rep.Seed, 10)
	doc.Context["duration_seconds"] = strconv.FormatFloat(rep.DurationSeconds, 'f', 2, 64)
	doc.Context["total_requests"] = strconv.FormatUint(rep.TotalCompleted, 10)
	if rep.ServerAdmitted > 0 || rep.TotalShed > 0 {
		doc.Context["server_admitted"] = strconv.FormatUint(rep.ServerAdmitted, 10)
		doc.Context["server_shed"] = strconv.FormatUint(rep.TotalShed, 10)
	}
	for _, c := range rep.Classes {
		iters := int64(c.Completed)
		lat := func(suffix string, ns int64) benchfmt.Result {
			return benchfmt.Result{Name: "Loadgen/" + c.Class + "/" + suffix, Iterations: iters, NsPerOp: float64(ns)}
		}
		doc.Results = append(doc.Results,
			lat("p50", c.Latency.P50Ns),
			lat("p90", c.Latency.P90Ns),
			lat("p99", c.Latency.P99Ns),
			lat("p99.9", c.Latency.P999Ns),
			lat("max", c.Latency.MaxNs),
			lat("mean", c.Latency.MeanNs),
			lat("service_p99", c.Service.P99Ns),
			benchfmt.Result{Name: "Loadgen/" + c.Class + "/throughput", Iterations: iters, Value: round2(c.ThroughputRPS), Unit: "req/s"},
			benchfmt.Result{Name: "Loadgen/" + c.Class + "/errors", Iterations: iters, Value: float64(c.Errors), Unit: "count"},
			benchfmt.Result{Name: "Loadgen/" + c.Class + "/retries", Iterations: iters, Value: float64(c.Retries), Unit: "count"},
		)
		for _, o := range c.SLO {
			base := "Loadgen/" + c.Class + "/slo_" + o.Objective
			doc.Results = append(doc.Results,
				benchfmt.Result{Name: base + "_budget_remaining", Iterations: iters, Value: round2(o.BudgetRemaining), Unit: "fraction"},
				benchfmt.Result{Name: base + "_burn_slow", Iterations: iters, Value: round2(o.SlowBurn), Unit: "burn"},
				benchfmt.Result{Name: base + "_bad", Iterations: iters, Value: float64(o.Bad), Unit: "count"},
			)
		}
		if c.Trace != nil {
			base := "Loadgen/" + c.Class + "/trace_"
			doc.Results = append(doc.Results,
				benchfmt.Result{Name: base + "kept", Iterations: iters, Value: float64(sum(c.Trace.Kept)), Unit: "count"},
				benchfmt.Result{Name: base + "dropped", Iterations: iters, Value: float64(sum(c.Trace.Dropped)), Unit: "count"},
				benchfmt.Result{Name: base + "evicted", Iterations: iters, Value: float64(c.Trace.Evicted), Unit: "count"},
			)
		}
	}
	if rep.TraceKept > 0 || rep.TraceDropped > 0 {
		doc.Context["trace_kept"] = strconv.FormatUint(rep.TraceKept, 10)
		doc.Context["trace_dropped"] = strconv.FormatUint(rep.TraceDropped, 10)
	}
	if rep.ServerAdmitted > 0 || rep.TotalShed > 0 {
		doc.Results = append(doc.Results,
			benchfmt.Result{Name: "Loadgen/server/admitted", Iterations: int64(rep.TotalCompleted), Value: float64(rep.ServerAdmitted), Unit: "count"},
			benchfmt.Result{Name: "Loadgen/server/shed", Iterations: int64(rep.TotalCompleted), Value: float64(rep.TotalShed), Unit: "count"},
		)
	}
	return doc
}

func round2(v float64) float64 { return float64(int64(v*100+0.5)) / 100 }

// Status is the live view served on /loadgen: per-class progress,
// windowed throughput and current CO-corrected percentiles. Safe to call
// concurrently with a run.
func (r *Runner) Status() any {
	type classStatus struct {
		Class         string                   `json:"class"`
		Scheduled     uint64                   `json:"scheduled"`
		Completed     uint64                   `json:"completed"`
		Errors        uint64                   `json:"errors"`
		WindowRPS     float64                  `json:"window_rps"`
		OverallRPS    float64                  `json:"overall_rps"`
		Latency       LatencySummary           `json:"latency"`
		Service       LatencySummary           `json:"service"`
		BacklogedJobs int                      `json:"backlogged_jobs"`
		SLO           []qos.SLOObjectiveStatus `json:"slo,omitempty"`
		Trace         *obs.TailSamplerStats    `json:"trace,omitempty"`
	}
	out := struct {
		Running        bool          `json:"running"`
		ElapsedSeconds float64       `json:"elapsed_seconds"`
		ServerAdmitted uint64        `json:"server_admitted,omitempty"`
		ServerShed     uint64        `json:"server_shed,omitempty"`
		Classes        []classStatus `json:"classes"`
	}{Running: r.started.Load()}
	if reg := r.cfg.ServerMetrics; reg != nil {
		out.ServerAdmitted = reg.Counter("maqs_server_admitted_total").Value()
		out.ServerShed = reg.Counter("maqs_server_shed_total").Value()
	}
	if !out.Running {
		return out
	}
	elapsed := time.Since(r.start)
	out.ElapsedSeconds = elapsed.Seconds()
	for _, c := range r.classes {
		cs := classStatus{
			Class:         c.scn.Class,
			Scheduled:     c.scheduled.Load(),
			Completed:     c.completed.Load(),
			Errors:        c.failed.Load(),
			Latency:       summarize(&c.corrected),
			Service:       summarize(&c.service),
			BacklogedJobs: len(c.jobs),
			SLO:           c.sloObjectives(),
		}
		if c.bundle.Sampler != nil {
			st := c.bundle.Sampler.Stats()
			cs.Trace = &st
		}
		if secs := elapsed.Seconds(); secs > 0 {
			cs.OverallRPS = float64(cs.Completed) / secs
		}
		out.Classes = append(out.Classes, cs)
	}
	return out
}

// printSummary emits the periodic per-class progress line.
func (r *Runner) printSummary() {
	now := time.Now()
	elapsed := now.Sub(r.start)
	for _, c := range r.classes {
		done := c.completed.Load()
		var window float64
		if dt := now.Sub(c.lastAt).Seconds(); dt > 0 {
			window = float64(done-c.lastCompleted) / dt
		}
		c.lastCompleted, c.lastAt = done, now
		s := &c.corrected
		fmt.Fprintf(r.cfg.Summary,
			"[%6.1fs] %-12s %8d/%d done  %8.0f req/s  p50 %-9v p99 %-9v p99.9 %-9v max %-9v errs %d\n",
			elapsed.Seconds(), c.scn.Class, done, c.scn.Requests, window,
			s.Quantile(0.5).Round(time.Microsecond), s.Quantile(0.99).Round(time.Microsecond),
			s.Quantile(0.999).Round(time.Microsecond), s.Quantile(1).Round(time.Microsecond),
			c.failed.Load())
	}
}

// ErrKindsString renders the class's error kinds deterministically
// ("COMM_FAILURE=3 deadline=1"), for final summaries and logs.
func (c ClassReport) ErrKindsString() string {
	keys := make([]string, 0, len(c.ErrKinds))
	for k := range c.ErrKinds {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for i, k := range keys {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s=%d", k, c.ErrKinds[k])
	}
	return out
}
