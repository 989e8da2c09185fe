package obs

import (
	"bytes"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// Profiler defaults.
const (
	// defaultProfileCPUDuration is how long an anomaly-triggered CPU
	// profile runs. Short on purpose: the interesting CPU state is the
	// one that coincides with the anomaly, not a leisurely average.
	defaultProfileCPUDuration = 250 * time.Millisecond
	// defaultProfileMaxCaptures bounds the retained capture set.
	defaultProfileMaxCaptures = 8
)

// defaultProfileKinds are the anomaly kinds that trigger a capture when
// ProfilingConfig.Kinds is empty: the sustained-pressure anomalies where
// a CPU/heap snapshot explains the pressure (a single deadline miss or
// qos violation rarely does).
var defaultProfileKinds = []string{AnomalySLOBurn, AnomalyOverloadShed, AnomalyBreakerOpen}

// ProfilingConfig parameterises anomaly-triggered profiling.
type ProfilingConfig struct {
	// CPUDuration is the CPU profile window per capture
	// (defaultProfileCPUDuration when non-positive).
	CPUDuration time.Duration
	// MaxCaptures bounds retained captures
	// (defaultProfileMaxCaptures when non-positive).
	MaxCaptures int
	// Kinds lists the anomaly kinds that trigger a capture
	// (defaultProfileKinds when empty).
	Kinds []string
}

// ProfileCapture is one anomaly-triggered profile: a heap snapshot taken
// at trigger time plus a short CPU profile started at trigger time. It
// is keyed by the flight dump that triggered it, so /flight and
// /profile line up by ID.
type ProfileCapture struct {
	ID          string        `json:"id"`
	Kind        string        `json:"kind"`
	At          time.Time     `json:"at"`
	CPUDuration time.Duration `json:"cpu_duration_ns"`
	// Err records why a part of the capture failed (typically the CPU
	// profiler being busy with another capture or net/http/pprof).
	Err string `json:"err,omitempty"`
	// Done flips once the CPU window has closed (the heap part is
	// always complete immediately).
	Done bool   `json:"done"`
	CPU  []byte `json:"-"`
	Heap []byte `json:"-"`
}

// ProfileCaptureSummary lists a capture without its payload bytes.
type ProfileCaptureSummary struct {
	ID          string        `json:"id"`
	Kind        string        `json:"kind"`
	At          time.Time     `json:"at"`
	CPUDuration time.Duration `json:"cpu_duration_ns"`
	CPUBytes    int           `json:"cpu_bytes"`
	HeapBytes   int           `json:"heap_bytes"`
	Done        bool          `json:"done"`
	Err         string        `json:"err,omitempty"`
}

// Profiler retains a bounded, kind-aware-evicted set of anomaly-
// triggered profile captures. A nil *Profiler is disabled; every method
// no-ops. Only one CPU profile can run process-wide (a runtime/pprof
// constraint), so concurrent triggers keep their heap snapshot and
// record a busy error for the CPU part.
type Profiler struct {
	mu       sync.Mutex
	captures []*ProfileCapture // oldest first
	max      int
	cpuDur   time.Duration
	kinds    map[string]struct{}
	busy     atomic.Bool
	wg       sync.WaitGroup

	triggered *Counter
}

// newProfiler constructs a profiler publishing its capture counter into
// reg (nil reg skips metrics).
func newProfiler(reg *Registry, cfg ProfilingConfig) *Profiler {
	if cfg.CPUDuration <= 0 {
		cfg.CPUDuration = defaultProfileCPUDuration
	}
	if cfg.MaxCaptures <= 0 {
		cfg.MaxCaptures = defaultProfileMaxCaptures
	}
	kinds := cfg.Kinds
	if len(kinds) == 0 {
		kinds = defaultProfileKinds
	}
	p := &Profiler{
		max:       cfg.MaxCaptures,
		cpuDur:    cfg.CPUDuration,
		kinds:     make(map[string]struct{}, len(kinds)),
		triggered: reg.Counter("maqs_profile_captures_total"),
	}
	for _, k := range kinds {
		p.kinds[k] = struct{}{}
	}
	return p
}

// onAnomaly is the flight recorder dump hook: it starts a capture when
// the anomaly kind is one the profiler watches.
func (p *Profiler) onAnomaly(dumpID, kind, _ string) {
	if p == nil {
		return
	}
	if _, ok := p.kinds[kind]; !ok {
		return
	}
	p.capture(dumpID, kind)
}

// capture snapshots the heap synchronously and runs the CPU window on a
// goroutine, retaining the capture under the dump's ID.
func (p *Profiler) capture(id, kind string) {
	c := &ProfileCapture{ID: id, Kind: kind, At: time.Now(), CPUDuration: p.cpuDur}
	var heap bytes.Buffer
	if prof := pprof.Lookup("heap"); prof != nil {
		if err := prof.WriteTo(&heap, 0); err != nil {
			c.Err = "heap: " + err.Error()
		} else {
			c.Heap = heap.Bytes()
		}
	}
	p.mu.Lock()
	p.captures = append(p.captures, c)
	if len(p.captures) > p.max {
		p.evictLocked()
	}
	p.mu.Unlock()
	p.triggered.Inc()
	if !p.busy.CompareAndSwap(false, true) {
		p.finish(c, nil, "cpu: profiler busy")
		return
	}
	var cpu bytes.Buffer
	if err := pprof.StartCPUProfile(&cpu); err != nil {
		p.busy.Store(false)
		p.finish(c, nil, "cpu: "+err.Error())
		return
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		time.Sleep(p.cpuDur)
		pprof.StopCPUProfile()
		p.busy.Store(false)
		p.finish(c, cpu.Bytes(), "")
	}()
}

// finish closes a capture's CPU part. The capture may already have been
// evicted; finishing it then is harmless.
func (p *Profiler) finish(c *ProfileCapture, cpu []byte, errMsg string) {
	p.mu.Lock()
	c.CPU = cpu
	if errMsg != "" {
		if c.Err != "" {
			c.Err += "; "
		}
		c.Err += errMsg
	}
	c.Done = true
	p.mu.Unlock()
}

// evictLocked drops one capture, kind-aware like the flight recorder's
// dump eviction: the oldest capture of the most numerous kind goes
// first, so an anomaly flood of one kind cannot wash out a rare kind's
// only profile.
func (p *Profiler) evictLocked() {
	counts := make(map[string]int, 4)
	for _, c := range p.captures {
		counts[c.Kind]++
	}
	victim, victimKind := 0, p.captures[0].Kind
	for i, c := range p.captures {
		if counts[c.Kind] > counts[victimKind] {
			victim, victimKind = i, c.Kind
		}
	}
	p.captures = append(p.captures[:victim], p.captures[victim+1:]...)
}

// Flush blocks until all in-flight CPU windows have closed. Tests (and
// orderly shutdown) use it; production callers never need to.
func (p *Profiler) Flush() {
	if p == nil {
		return
	}
	p.wg.Wait()
}

// summaries summarises the retained captures, oldest first.
func (p *Profiler) summaries() []ProfileCaptureSummary {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]ProfileCaptureSummary, 0, len(p.captures))
	for _, c := range p.captures {
		out = append(out, ProfileCaptureSummary{
			ID:          c.ID,
			Kind:        c.Kind,
			At:          c.At,
			CPUDuration: c.CPUDuration,
			CPUBytes:    len(c.CPU),
			HeapBytes:   len(c.Heap),
			Done:        c.Done,
			Err:         c.Err,
		})
	}
	return out
}

// lookup retrieves one retained capture by ID (payload included).
func (p *Profiler) lookup(id string) (ProfileCapture, bool) {
	if p == nil {
		return ProfileCapture{}, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.captures {
		if c.ID == id {
			return *c, true
		}
	}
	return ProfileCapture{}, false
}
