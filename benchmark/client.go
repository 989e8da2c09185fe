package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"maqs"
	"maqs/internal/cdr"
	"maqs/internal/ior"
	"maqs/internal/orb"
	"maqs/internal/qos/transport"
)

// runMode selects what surrounds the program under test in one session.
type runMode struct {
	// traced installs the span-recording wrappers on both peers.
	traced bool
	// observed sets Options.Observability on both peers.
	observed bool
	// warmup overrides the workload's warm-up op count when positive.
	warmup int
}

// serverProc is a running server child.
type serverProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	refs  [2]string // echo object, control object
}

// spawnServer re-executes this binary as the workload's server.
func spawnServer(cfg serveConfig) (*serverProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating own binary: %w", err)
	}
	raw, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), serveEnv+"="+string(raw), "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting server child: %w", err)
	}
	p := &serverProc{cmd: cmd, stdin: stdin}
	lines := bufio.NewReader(stdout)
	for i := range p.refs {
		line, err := lines.ReadString('\n')
		if err != nil {
			_ = p.stop()
			return nil, fmt.Errorf("reading server child's references: %w", err)
		}
		p.refs[i] = strings.TrimSpace(line)
	}
	return p, nil
}

// stop ends the child by closing its standard input and waits for it; a
// child that does not exit cleanly within five seconds is killed and
// reported.
func (p *serverProc) stop() error {
	_ = p.stdin.Close() // the child exits on end of input
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("server child: %w", err)
		}
		return nil
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill() // already gone is fine
		<-done
		return errors.New("server child did not exit within 5s of end of input")
	}
}

// session is one workload set up and warmed: a server child, a control
// connection and the callers, each with its own System and connection.
type session struct {
	w       workload
	server  *serverProc
	ctlSys  *maqs.System
	ctl     *maqs.Stub
	callers []*caller
	// counters counts socket calls and bytes on all callers' connections.
	counters connCounters
	rec      *recorder // client-side spans when traced
	setup    time.Duration
	// reqBytes and repBytes are the mean request and reply frame sizes
	// seen during warm-up: the message shape of the raw-TCP floor sample.
	reqBytes, repBytes int
}

// caller is one closed-loop caller. All buffers a call needs are built
// before the window so the harness's own garbage is not measured.
type caller struct {
	w     workload
	idx   uint32
	sys   *maqs.System
	tr    *clientTransport
	stub  *maqs.Stub
	ring  *argRing
	next  int // ring position of the next call
	seq   uint32
	probe *callerProbe // nil unless traced

	// proposals are negotiate_churn's pre-built seeded proposals.
	proposals []*maqs.Proposal
	// payload is the payload of the call in progress (sync styles);
	// leaked is set when its text was seen in a written buffer.
	payload []byte
	leaked  atomic.Bool

	// warmRate is the caller's op rate during warm-up, in ops per second.
	warmRate float64

	samples   windowSamples
	attempted int
	failed    int
	firstErr  error
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

var errMismatch = errors.New("reply bytes differ from the payload sent")

// spanCapacity bounds the spans one process records in a traced window.
const spanCapacity = 1_500_000

// setupSession spawns the server, builds the callers, negotiates where the
// workload says so and runs the warm-up. It returns with the first
// measured op next; the elapsed time is the workload's set-up time.
func setupSession(w workload, seed int64, mode runMode) (s *session, err error) {
	begin := time.Now()
	s = &session{w: w}
	defer func() {
		if err != nil {
			_ = s.close()
			s = nil
		}
	}()
	s.server, err = spawnServer(serveConfig{Workload: w.Name, Traced: mode.traced, Observed: mode.observed, SpanCapacity: spanCapacity})
	if err != nil {
		return s, err
	}
	ref, err := ior.Parse(s.server.refs[0])
	if err != nil {
		return s, err
	}
	ctlRef, err := ior.Parse(s.server.refs[1])
	if err != nil {
		return s, err
	}
	if s.ctlSys, err = maqs.NewSystem(maqs.Options{}); err != nil {
		return s, err
	}
	s.ctl = s.ctlSys.Stub(ctlRef)
	if mode.traced {
		s.rec = newRecorder(spanCapacity)
	}
	var observability *maqs.Observability
	if mode.observed {
		observability = newObservability()
	}
	ctx := context.Background()
	for i := 0; i < w.Callers; i++ {
		c, err := newCaller(ctx, w, uint32(i), ref, newRand(seed*131+int64(i)), &s.counters, s.rec, observability)
		if c != nil {
			s.callers = append(s.callers, c)
		}
		if err != nil {
			return s, err
		}
	}
	warm := w.Warmup
	if mode.warmup > 0 {
		warm = mode.warmup
	}
	if err := s.warmUp(ctx, warm); err != nil {
		return s, err
	}
	s.setup = time.Since(begin)
	return s, nil
}

// newCaller builds a caller's System (zero-value Options plus only what
// the workload names), its stub and, for bound workloads, its binding.
func newCaller(ctx context.Context, w workload, idx uint32, ref *maqs.IOR, rng *rand.Rand,
	counters *connCounters, rec *recorder, observability *maqs.Observability) (*caller, error) {
	c := &caller{w: w, idx: idx}
	c.tr = &clientTransport{counters: counters, who: uint8(idx), rec: rec}
	if rec != nil {
		c.probe = &callerProbe{rec: rec, who: uint8(idx)}
	}
	opts := maqs.Options{Transport: c.tr, Observability: observability}
	if w.Style == stylePipelined {
		opts.PipelineDepth = pipelineDepth
	}
	var probe func(transport.Factory) transport.Factory
	if c.probe != nil {
		probe = func(f transport.Factory) transport.Factory { return probeFactory(f, rec, c.probe, nil) }
	}
	sys, err := newSystem(opts, w, probe)
	if err != nil {
		return nil, err
	}
	c.sys = sys
	if err := registerNull(c.sys, c.probe); err != nil {
		return c, err
	}
	c.stub = c.sys.Stub(ref)
	c.ring = newArgRing(rng, c.sys.ORB.Order(), ringSize, w.Payload)
	if w.Style == styleChurn {
		for i := 0; i < ringSize; i++ {
			c.proposals = append(c.proposals, &maqs.Proposal{Characteristic: nullName,
				Params: []maqs.ParamProposal{{Name: "x", Desired: maqs.Number(float64(1 + rng.Intn(1000)))}}})
		}
	}
	if w.bound() {
		if _, err := c.stub.Negotiate(ctx, &maqs.Proposal{Characteristic: w.Characteristic}); err != nil {
			return c, fmt.Errorf("caller %d negotiating %s: %w", idx, w.Characteristic, err)
		}
		if err := c.checkBinding(); err != nil {
			return c, err
		}
	}
	// The mediator probe needs the synchronous delivery path; on
	// pipelined_small it would turn every call into a goroutine.
	if c.probe != nil && w.Style == styleSync {
		if _, probed := c.stub.Mediator().(*probeMediator); !probed {
			c.stub.SetMediator(&probeMediator{inner: c.stub.Mediator(), char: w.Characteristic, p: c.probe})
		}
	}
	return c, nil
}

// checkBinding fails when the stub's binding does not name the workload's
// characteristic and module: the workload would measure something else.
func (c *caller) checkBinding() error {
	b := c.stub.Binding()
	if b == nil {
		return fmt.Errorf("caller %d holds no binding, want %s", c.idx, c.w.Characteristic)
	}
	if b.Characteristic != c.w.Characteristic || b.Module != c.w.Module {
		return fmt.Errorf("caller %d bound to characteristic %q module %q, want %q and %q",
			c.idx, b.Characteristic, b.Module, c.w.Characteristic, c.w.Module)
	}
	return nil
}

// warmUp runs n ops split over the callers and applies the checks that
// tell a working characteristic from a no-op.
func (s *session) warmUp(ctx context.Context, n int) error {
	if s.w.Characteristic == maqs.Encryption {
		for _, c := range s.callers {
			c := c
			inspect := func(p []byte) {
				if len(c.payload) >= callIDSize+32 && bytes.Contains(p, c.payload[callIDSize:callIDSize+32]) {
					c.leaked.Store(true)
				}
			}
			c.tr.inspect.Store(&inspect)
		}
	}
	before := s.counters.snapshot()
	per := (n + len(s.callers) - 1) / len(s.callers)
	began := time.Now()
	s.each(func(c *caller) { c.run(ctx, began, 0, per) })
	elapsed := time.Since(began).Seconds()
	for _, c := range s.callers {
		c.warmRate = float64(per) / elapsed
		c.tr.inspect.Store(nil)
		if c.failed > 0 {
			return fmt.Errorf("warm-up: caller %d failed %d of %d ops: %w", c.idx, c.failed, c.attempted, c.firstErr)
		}
		if c.leaked.Load() {
			return fmt.Errorf("warm-up: caller %d wrote payload text to the wire under %s", c.idx, s.w.Characteristic)
		}
	}
	wire := s.counters.snapshot().sub(before)
	s.reqBytes, s.repBytes = int(wire.BytesOut/wire.Writes), int(wire.BytesIn/wire.Writes)
	if s.w.Characteristic == maqs.Compression {
		if perOp := float64(wire.BytesOut) / float64(per*len(s.callers)); perOp >= float64(s.w.Payload) {
			return fmt.Errorf("warm-up: %.0f request bytes per op on the wire, not below the %d B payload", perOp, s.w.Payload)
		}
	}
	return nil
}

// each runs f for every caller concurrently and waits.
func (s *session) each(f func(c *caller)) {
	var wg sync.WaitGroup
	for _, c := range s.callers {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			f(c)
		}(c)
	}
	wg.Wait()
}

// serverStats reads the child's counters through the control object.
func (s *session) serverStats(ctx context.Context) (serverReport, error) {
	var rep serverReport
	dec, err := s.ctl.Call(ctx, opStats, nil)
	if err != nil {
		return rep, fmt.Errorf("control stats: %w", err)
	}
	data, err := dec.ReadOctets()
	if err != nil {
		return rep, fmt.Errorf("control stats: %w", err)
	}
	return rep, json.Unmarshal(data, &rep)
}

// arm switches span recording on both peers.
func (s *session) arm(ctx context.Context, on bool) error {
	e := cdr.NewEncoder(s.ctlSys.ORB.Order())
	e.WriteBool(on)
	if _, err := s.ctl.Call(ctx, opArm, e.Bytes()); err != nil {
		return fmt.Errorf("control arm: %w", err)
	}
	s.rec.armed.Store(on)
	return nil
}

// serverSpans fetches the child's spans and its connection table.
func (s *session) serverSpans(ctx context.Context) (spans []span, peers []string, err error) {
	for {
		e := cdr.NewEncoder(s.ctlSys.ORB.Order())
		e.WriteULong(uint32(len(spans)))
		dec, err := s.ctl.Call(ctx, opSpans, e.Bytes())
		if err != nil {
			return nil, nil, fmt.Errorf("control spans: %w", err)
		}
		total, err := dec.ReadULong()
		if err != nil {
			return nil, nil, fmt.Errorf("control spans: %w", err)
		}
		data, err := dec.ReadOctets()
		if err != nil {
			return nil, nil, fmt.Errorf("control spans: %w", err)
		}
		chunk, err := decodeSpans(data)
		if err != nil {
			return nil, nil, err
		}
		spans = append(spans, chunk...)
		if len(spans) >= int(total) || len(chunk) == 0 {
			n, err := dec.ReadULong()
			if err != nil {
				return nil, nil, fmt.Errorf("control spans: %w", err)
			}
			for ; n > 0; n-- {
				p, err := dec.ReadString()
				if err != nil {
					return nil, nil, fmt.Errorf("control spans: %w", err)
				}
				peers = append(peers, p)
			}
			return spans, peers, nil
		}
	}
}

// close tears the session down; the error reports a server child that
// did not exit cleanly.
func (s *session) close() error {
	for _, c := range s.callers {
		c.sys.Shutdown()
	}
	if s.ctlSys != nil {
		s.ctlSys.Shutdown()
	}
	if s.server != nil {
		return s.server.stop()
	}
	return nil
}

// binLength is the length of the bins a measured window is cut into.
const binLength = 100 * time.Millisecond

// window is what one measured window produced.
type window struct {
	Start    time.Time
	Duration time.Duration
	// Bins holds the callers' samples and both processes' CPU time per
	// bin; the time-based metrics are estimated from its quiet bins.
	Bins binned
	// Attempted and Failed count ops over all callers; FirstErr is the
	// first failure seen.
	Attempted, Failed int
	FirstErr          error
	Client, Server    procStats // cost of the whole window per process
	Conn              connCounts
	// Bindings is the server's live binding count after the window.
	Bindings int
}

// ops is the number of ops completed in the window.
func (w *window) ops() float64 { return float64(w.Attempted - w.Failed) }

// runWindow measures one window of dur, a whole number of bins. The
// process counters are read immediately before the callers start and
// immediately after the last one stops; while they run, a sampler reads
// both processes' CPU time at every bin boundary.
func (s *session) runWindow(ctx context.Context, dur time.Duration) (*window, error) {
	bins := int(dur / binLength)
	dur = time.Duration(bins) * binLength
	for _, c := range s.callers {
		c.prepare(dur, bins)
	}
	srv0, err := s.serverStats(ctx)
	if err != nil {
		return nil, err
	}
	conn0 := s.counters.snapshot()
	cli0 := readProcStats()
	start := time.Now()
	cpu := make(chan []float64, 1)
	sampleErr := make(chan error, 1)
	go func() {
		series, err := s.sampleCPU(ctx, start, bins)
		cpu <- series
		sampleErr <- err
	}()
	s.each(func(c *caller) { c.run(ctx, start, dur, 0) })
	elapsed := time.Since(start)
	cli1 := readProcStats()
	conn1 := s.counters.snapshot()
	series := <-cpu
	if err := <-sampleErr; err != nil {
		return nil, err
	}
	srv1, err := s.serverStats(ctx)
	if err != nil {
		return nil, err
	}
	win := &window{Start: start, Duration: elapsed, Client: cli1.sub(cli0), Server: srv1.Proc.sub(srv0.Proc),
		Conn: conn1.sub(conn0), Bindings: srv1.Bindings,
		Bins: binned{Bin: binLength.Seconds(), CPUNs: series}}
	for _, c := range s.callers {
		win.Bins.Callers = append(win.Bins.Callers, &c.samples)
		win.Attempted += c.attempted
		win.Failed += c.failed
		if win.FirstErr == nil {
			win.FirstErr = c.firstErr
		}
	}
	return win, nil
}

// sampleCPU reads the client's and the server's CPU time at the start of
// the window and at the end of each bin, and returns the CPU time both
// used per bin. The server is asked over the control connection: one
// small request per bin beside the callers' thousands.
func (s *session) sampleCPU(ctx context.Context, start time.Time, bins int) ([]float64, error) {
	read := func() (int64, error) {
		dec, err := s.ctl.Call(ctx, opCPU, nil)
		if err != nil {
			return 0, fmt.Errorf("control cpu: %w", err)
		}
		server, err := dec.ReadLongLong()
		if err != nil {
			return 0, fmt.Errorf("control cpu: %w", err)
		}
		return server + cpuTimeNs(), nil
	}
	series := make([]float64, bins)
	last, err := read()
	if err != nil {
		return nil, err
	}
	for k := 0; k < bins; k++ {
		time.Sleep(time.Until(start.Add(time.Duration(k+1) * binLength)))
		now, err := read()
		if err != nil {
			return nil, err
		}
		series[k], last = float64(now-last), now
	}
	return series, nil
}

// verify applies the end-of-window checks: bindings still name what the
// workload says, and the server holds exactly the bindings it should.
func (s *session) verify(win *window) error {
	want := 0
	if s.w.bound() {
		want = len(s.callers)
		for _, c := range s.callers {
			if err := c.checkBinding(); err != nil {
				return err
			}
		}
	}
	if win.Bindings != want {
		return fmt.Errorf("server holds %d bindings after the window, want %d", win.Bindings, want)
	}
	return nil
}

// sampleBuffers keeps one latency buffer per caller index for the life of
// the process, so a second session (a further window of a per-layer run,
// or the re-run after a noisy attempt) reuses the first one's memory and
// the client's peak RSS does not depend on how many sessions ran.
var sampleBuffers = map[uint32][]uint32{}

// prepare sizes the caller's sample buffers for a window: room for twice
// the op rate seen in warm-up.
func (c *caller) prepare(dur time.Duration, bins int) {
	want := int(2*c.warmRate*dur.Seconds()) + 1024
	buf := sampleBuffers[c.idx]
	if cap(buf) < want {
		buf = make([]uint32, 0, want)
		sampleBuffers[c.idx] = buf
	}
	c.samples.ns = buf[:0]
	if cap(c.samples.binStart) < bins {
		c.samples.binStart = make([]int, 0, bins)
	}
}

// run drives the caller: for dur from start when count is 0 (a measured
// window cut into bins), else for count ops (warm-up).
func (c *caller) run(ctx context.Context, start time.Time, dur time.Duration, count int) {
	c.samples.ns = c.samples.ns[:0]
	c.samples.binStart = append(c.samples.binStart[:0], 0)
	c.attempted, c.failed, c.firstErr = 0, 0, nil
	bins := 1
	if count == 0 {
		bins = int(dur / binLength)
	}
	deadline := start.Add(dur)
	// begin reports whether another op may start at now, and counts it.
	started := 0
	begin := func(now time.Time) bool {
		if (count > 0 && started >= count) || (count == 0 && !now.Before(deadline)) {
			return false
		}
		started++
		return true
	}
	record := func(t0, t1 time.Time, err error) {
		c.attempted++
		if err != nil {
			c.failed++
			if c.firstErr == nil {
				c.firstErr = err
			}
			return
		}
		if count == 0 {
			k := int(t1.Sub(start) / binLength)
			if k >= bins {
				k = bins - 1 // the op in flight at the deadline
			}
			for len(c.samples.binStart) <= k {
				c.samples.binStart = append(c.samples.binStart, len(c.samples.ns))
			}
		}
		c.samples.ns = append(c.samples.ns, uint32(t1.Sub(t0)))
	}
	if c.w.Style == stylePipelined {
		c.runPipelined(ctx, begin, record)
	} else {
		op := c.callOnce
		if c.w.Style == styleChurn {
			op = c.churnOnce
		}
		for t0 := time.Now(); begin(t0); t0 = time.Now() {
			err := op(ctx)
			record(t0, time.Now(), err)
		}
	}
	for len(c.samples.binStart) < bins {
		c.samples.binStart = append(c.samples.binStart, len(c.samples.ns))
	}
}

// nextArgs stamps the next ring entry with a fresh call id.
func (c *caller) nextArgs() (args, payload []byte) {
	c.seq++
	args, payload = c.ring.stamp(c.next, c.idx, c.seq)
	c.next = (c.next + 1) % ringSize
	return args, payload
}

// callOnce makes one synchronous echo call and verifies the reply.
func (c *caller) callOnce(ctx context.Context) error {
	args, payload := c.nextArgs()
	c.payload = payload
	var start int64
	if c.probe != nil {
		c.probe.seq = c.seq
		start = c.probe.rec.now()
	}
	dec, err := c.stub.Call(ctx, opEcho, args)
	if c.probe != nil && c.w.Style == styleSync {
		c.probe.rec.add(kindCall, c.probe.who, c.seq, start, c.probe.rec.now())
	}
	if err != nil {
		return err
	}
	return checkReply(dec, payload)
}

func checkReply(dec *cdr.Decoder, payload []byte) error {
	got, err := dec.ReadOctets()
	if err != nil {
		return err
	}
	if !bytes.Equal(got, payload) {
		return errMismatch
	}
	return nil
}

// churnOnce is one negotiate_churn op: negotiate a seeded proposal, make
// one bound call, release.
func (c *caller) churnOnce(ctx context.Context) error {
	proposal := c.proposals[c.next]
	var start int64
	if c.probe != nil {
		start = c.probe.rec.now()
	}
	b, err := c.stub.Negotiate(ctx, proposal)
	if err != nil {
		return err
	}
	if err := c.checkBinding(); err != nil {
		return err
	}
	if want := proposal.Params[0].Desired.Num; b.Contract.Number("x", -1) != want {
		return fmt.Errorf("negotiated x = %v, proposed %v", b.Contract.Number("x", -1), want)
	}
	if err := c.callOnce(ctx); err != nil {
		return err
	}
	if err := c.stub.Release(ctx); err != nil {
		return err
	}
	if c.probe != nil {
		c.probe.rec.add(kindCall, c.probe.who, c.seq, start, c.probe.rec.now())
	}
	return nil
}

// runPipelined keeps pipelineDepth asynchronous calls in flight from one
// goroutine and collects them first-in first-out; an op's latency runs
// from dispatch to its future resolving.
func (c *caller) runPipelined(ctx context.Context, begin func(time.Time) bool, record func(t0, t1 time.Time, err error)) {
	type slot struct {
		fut     *orb.Future
		t0      time.Time
		start   int64
		seq     uint32
		payload []byte
	}
	var slots [pipelineDepth]slot
	// dispatch starts a call in s; false leaves the slot empty.
	dispatch := func(s *slot) bool {
		s.fut = nil
		now := time.Now()
		if !begin(now) {
			return false
		}
		args, payload := c.nextArgs()
		s.t0, s.seq, s.payload = now, c.seq, payload
		if c.probe != nil {
			s.start = c.probe.rec.now()
		}
		fut, err := c.stub.CallAsync(ctx, opEcho, args)
		if err != nil {
			record(now, time.Now(), err)
			return false
		}
		s.fut = fut
		return true
	}
	inFlight := 0
	for i := range slots {
		if dispatch(&slots[i]) {
			inFlight++
		}
	}
	for head := 0; inFlight > 0; head = (head + 1) % pipelineDepth {
		s := &slots[head]
		if s.fut == nil {
			continue
		}
		out, err := s.fut.Wait(ctx)
		t1 := time.Now()
		if c.probe != nil {
			c.probe.rec.add(kindCall, c.probe.who, s.seq, s.start, c.probe.rec.now())
		}
		if err == nil {
			err = out.Err()
		}
		if err == nil {
			err = checkReply(out.Decoder(), s.payload)
		}
		record(s.t0, t1, err)
		if !dispatch(s) {
			inFlight--
		}
	}
}
