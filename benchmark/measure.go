package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// runConfig is what one run of one workload is asked to do.
type runConfig struct {
	Seed int64
	// Window is the measured time: one untraced window for the end-to-end
	// run; split over a counts window, a traced window and an
	// instrumented window for the per-layer run.
	Window time.Duration
	// Smoke shrinks warm-up, set-up repeats and ladder iterations so that
	// every workload and every check runs in about a second.
	Smoke  bool
	OutDir string
}

// mode is the untraced, uninstrumented session mode of a run.
func (cfg runConfig) mode() runMode {
	if cfg.Smoke {
		return runMode{warmup: 200}
	}
	return runMode{}
}

// runResult is the outcome of one run of one workload.
type runResult struct {
	Workload  string    `json:"workload"`
	Metrics   metricSet `json:"metrics"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	// Samples is the number of op latencies behind op_p50_us.
	Samples int `json:"samples,omitempty"`
	// FloorUs is netsim.tcp_rtt_us sampled before and after the end-to-end
	// window: the noise sentinel's view of the machine.
	FloorUs []float64 `json:"floor_us,omitempty"`
	// Problems lists every failed correctness or anti-no-op check; the
	// run is correct when there are none.
	Problems []string `json:"problems,omitempty"`
	// Noisy records that the noise sentinel fired and the workload was
	// run again. Metrics are then those of the quieter attempt, the one
	// with the higher ops_per_s (interference only ever slows a run), and
	// OtherAttempt holds the other's.
	Noisy        bool      `json:"noisy,omitempty"`
	NoisyWhy     string    `json:"noisy_why,omitempty"`
	OtherAttempt metricSet `json:"other_attempt,omitempty"`
}

func (r *runResult) correct() bool { return len(r.Problems) == 0 && r.Failed == 0 && r.Attempted > 0 }

func (r *runResult) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// setupRepeats is how many times the end-to-end run sets the workload up;
// setup_s is the median.
const setupRepeats = 7

// rttPings is the number of raw TCP round trips behind one
// netsim.tcp_rtt_us sample.
const rttPings = 2000

// measureEndToEnd runs the untraced window of w and derives the
// end-to-end metrics. If the noise sentinel fires, the workload is run
// once more and the result records both attempts, reporting the quieter.
func measureEndToEnd(w workload, cfg runConfig) (*runResult, error) {
	repeats := setupRepeats
	if cfg.Smoke {
		repeats = 1
	}
	res, setups, noisy, err := endToEndAttempt(w, cfg, repeats, nil)
	if err != nil || noisy == "" || !res.correct() {
		return res, err
	}
	again, _, _, err := endToEndAttempt(w, cfg, 1, setups)
	if err != nil {
		return nil, err
	}
	if again.correct() && again.Metrics["ops_per_s"].Value < res.Metrics["ops_per_s"].Value {
		res, again = again, res
	}
	again.Noisy, again.NoisyWhy, again.OtherAttempt = true, noisy, res.Metrics
	return again, nil
}

// endToEndAttempt sets the workload up repeats times and measures one
// window on the last set-up. setups carries the set-up times of an
// earlier attempt; noisy is non-empty when the sentinel says the machine
// was disturbed while the window ran.
func endToEndAttempt(w workload, cfg runConfig, repeats int, setups []float64) (res *runResult, allSetups []float64, noisy string, err error) {
	ctx := context.Background()
	res = &runResult{Workload: w.Name, Metrics: make(metricSet)}
	mode := cfg.mode()
	var s *session
	for i := 0; i < repeats; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				res.problem("set-up %d: %v", i, err)
			}
		}
		if s, err = setupSession(w, cfg.Seed, mode); err != nil {
			return nil, nil, "", err
		}
		setups = append(setups, s.setup.Seconds())
	}
	defer func() {
		if cerr := s.close(); cerr != nil && err == nil {
			res.problem("%v", cerr)
		}
	}()
	rttBefore, err := s.rtt()
	if err != nil {
		return nil, nil, "", err
	}
	win, err := s.runWindow(ctx, cfg.Window)
	if err != nil {
		return nil, nil, "", err
	}
	rttAfter, err := s.rtt()
	if err != nil {
		return nil, nil, "", err
	}
	res.absorb(s, win)
	ops := win.ops()
	quiet, spread := win.Bins.estimate()
	values := map[string]float64{
		"setup_s":            median(setups),
		"ops_per_s":          quiet.OpsPerS,
		"op_p50_us":          quiet.P50Ns / 1e3,
		"op_p99_us":          quiet.P99Ns / 1e3,
		"allocs_per_op":      float64(win.Client.Mallocs+win.Server.Mallocs) / ops,
		"alloc_bytes_per_op": float64(win.Client.AllocBytes+win.Server.AllocBytes) / ops,
		"cpu_us_per_op":      quiet.CPUNsPerOp / 1e3,
		"wire_bytes_per_op":  float64(win.Conn.BytesOut+win.Conn.BytesIn) / ops,
		"rss_peak_mb":        float64(win.Client.HWMKiB+win.Server.HWMKiB) / 1024,
	}
	spreads := map[string]float64{
		"setup_s":       relSpread(setups),
		"ops_per_s":     spread.OpsPerS,
		"op_p50_us":     spread.P50Ns,
		"op_p99_us":     spread.P99Ns,
		"cpu_us_per_op": spread.CPUNsPerOp,
	}
	if missing := res.Metrics.fill(endToEnd, values, spreads); missing != "" {
		res.problem("metric %s was not measured", missing)
	}
	res.Samples = quiet.Samples
	res.FloorUs = []float64{rttBefore, rttAfter}

	// Noise sentinel: the raw-TCP floor moved, or a second of the window
	// stalled.
	if change := math.Abs(rttAfter-rttBefore) / rttBefore; change > 0.25 {
		noisy = fmt.Sprintf("netsim.tcp_rtt_us went from %.1f to %.1f us across the window", rttBefore, rttAfter)
	}
	if k := win.Bins.stalled(); k >= 0 {
		noisy = fmt.Sprintf("second %d of the window completed under half the ops of the median second", k)
	}
	return res, setups, noisy, nil
}

// absorb folds a window's op counts and end-of-window checks into res.
func (res *runResult) absorb(s *session, win *window) {
	res.Attempted += win.Attempted
	res.Failed += win.Failed
	if win.FirstErr != nil {
		res.problem("%d of %d ops failed, first: %v", win.Failed, win.Attempted, win.FirstErr)
	}
	if err := s.verify(win); err != nil {
		res.problem("%v", err)
	}
}

// rtt samples the raw-TCP floor with the session's frame sizes.
func (s *session) rtt() (float64, error) {
	return tcpRTT(s.reqBytes, s.repBytes, rttPings)
}

// measurePerLayer runs the isolated ladder and three short windows of w:
// untraced (socket and process counts), traced (span self times) and
// instrumented (the price of Options.Observability).
func measurePerLayer(w workload, cfg runConfig) (*runResult, error) {
	ctx := context.Background()
	res := &runResult{Workload: w.Name, Metrics: make(metricSet)}
	mode := cfg.mode()
	scale := 1
	if cfg.Smoke {
		scale = 50
	}
	values, err := runLadder(w, cfg.Seed, scale)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}

	// One window of a given kind: set up, run, check, tear down. before
	// and after run inside the session, around the window.
	var rtts []float64
	run := func(mode runMode, share float64, before func(*session) error, after func(*session, *window) error) (win *window, err error) {
		s, err := setupSession(w, cfg.Seed, mode)
		if err != nil {
			return nil, err
		}
		defer func() {
			if cerr := s.close(); cerr != nil && err == nil {
				res.problem("%v", cerr)
			}
		}()
		rtt, err := s.rtt()
		if err != nil {
			return nil, err
		}
		rtts = append(rtts, rtt)
		if before != nil {
			if err := before(s); err != nil {
				return nil, err
			}
		}
		if win, err = s.runWindow(ctx, time.Duration(float64(cfg.Window)*share)); err != nil {
			return nil, err
		}
		res.absorb(s, win)
		if after != nil {
			err = after(s, win)
		}
		return win, err
	}

	// Counts from an untraced window.
	plain, err := run(mode, 0.3, nil, nil)
	if err != nil {
		return nil, err
	}
	ops := plain.ops()
	seconds := plain.Duration.Seconds()
	values["netsim.writes_per_op"] = float64(plain.Conn.Writes) / ops
	values["netsim.reads_per_op"] = float64(plain.Conn.Reads) / ops
	values["characteristics.wire_ratio"] = float64(plain.Conn.BytesOut+plain.Conn.BytesIn) / (2 * float64(w.Payload) * ops)
	values["proc_client.allocs_per_op"] = float64(plain.Client.Mallocs) / ops
	values["proc_server.allocs_per_op"] = float64(plain.Server.Mallocs) / ops
	values["proc_client.cpu_us_per_op"] = float64(plain.Client.CPUNs) / 1e3 / ops
	values["proc_server.cpu_us_per_op"] = float64(plain.Server.CPUNs) / 1e3 / ops
	values["proc_client.gc_per_s"] = float64(plain.Client.GCs) / seconds
	values["proc_server.gc_per_s"] = float64(plain.Server.GCs) / seconds
	plainQuiet := plain.Bins.whole()

	// Traced window: spans on both peers, analysed after the window.
	traced := mode
	traced.traced = true
	var tr traceResult
	twin, err := run(traced, 0.4,
		func(s *session) error { return s.arm(ctx, true) },
		func(s *session, win *window) error {
			if err := s.arm(ctx, false); err != nil {
				return err
			}
			var err error
			tr, err = s.analyze(ctx, win, filepath.Join(cfg.OutDir, "trace-"+w.Name+".jsonl"))
			return err
		})
	if err != nil {
		return nil, err
	}
	for name, v := range tr.P50Us {
		values[name] = v
	}
	p50 := plainQuiet.P50Ns / 1e3
	values["trace.residual_frac"] = math.Abs(p50-tr.SelfSumUs) / p50
	values["trace.overhead_frac"] = 1 - twin.Bins.whole().OpsPerS/plainQuiet.OpsPerS
	if tr.Calls == 0 {
		res.problem("traced window yielded no complete call tree (%d dropped)", tr.Dropped)
	}
	if tr.Mislinked > 0 {
		res.problem("%d server spans carry a call id other than their tree's", tr.Mislinked)
	}

	// Instrumentation price.
	observed := mode
	observed.observed = true
	owin, err := run(observed, 0.3, nil, nil)
	if err != nil {
		return nil, err
	}
	values["obs.on_ops_per_s"] = owin.Bins.whole().OpsPerS
	values["obs.on_allocs_per_op"] = float64(owin.Client.Mallocs+owin.Server.Mallocs) / owin.ops()

	values["netsim.tcp_rtt_us"] = median(rtts)
	if missing := res.Metrics.fill(perLayer, values, nil); missing != "" {
		res.problem("metric %s was not measured", missing)
	}
	return res, nil
}

// analyze fetches the server's spans, keeps the spans that ended in the
// traced window's quiet bins (the same selection the end-to-end timing
// uses), nests both peers' spans per caller, writes the trace file and
// derives the trace metrics.
func (s *session) analyze(ctx context.Context, win *window, tracePath string) (traceResult, error) {
	server, peers, err := s.serverSpans(ctx)
	if err != nil {
		return traceResult{}, err
	}
	client := s.rec.recorded()
	if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
		return traceResult{}, err
	}
	quiet := make(map[int]bool)
	for _, k := range win.Bins.quietBins(0, win.Bins.bins()) {
		quiet[k] = true
	}
	start := win.Start.UnixNano()
	inQuiet := func(end int64) bool { return quiet[int((end-start)/int64(binLength))] }
	if s.w.Style == stylePipelined {
		if err := writeFlatTrace(tracePath, client, server); err != nil {
			return traceResult{}, err
		}
		var kept []span
		for _, spans := range [][]span{client, server} {
			for _, sp := range spans {
				if inQuiet(sp.End) {
					kept = append(kept, sp)
				}
			}
		}
		return analyzeAggregates(kept), nil
	}
	addrs := make([][]string, len(s.callers))
	perCaller := make([][]span, len(s.callers))
	for i, c := range s.callers {
		addrs[i] = c.tr.addrs()
	}
	for _, sp := range client {
		perCaller[sp.Who] = append(perCaller[sp.Who], sp)
	}
	trees := make([]*callTree, len(s.callers))
	for i, theirs := range attribute(server, peers, addrs) {
		trees[i] = nest(append(perCaller[i], theirs...))
	}
	if err := writeTrace(tracePath, trees); err != nil {
		return traceResult{}, err
	}
	res := analyzeTrees(trees, inQuiet)
	res.Dropped += int(s.rec.dropped.Load())
	return res, nil
}
