package loadgen

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"maqs"
	"maqs/internal/cdr"
	"maqs/internal/ior"
	"maqs/internal/netsim"
	"maqs/internal/obs"
	"maqs/internal/orb"
	"maqs/internal/qos"
	"maqs/internal/resilience"
)

// Config parameterises a load run.
type Config struct {
	// Target is the object every scenario invokes.
	Target *ior.IOR
	// Scenarios are the QoS classes of the run (at least one).
	Scenarios []Scenario
	// Seed makes the run repeatable: arrival gaps and payload sizes are
	// drawn from per-scenario PCG streams derived from it.
	Seed uint64
	// Transport supplies dialing (nil: TCP).
	Transport netsim.Transport
	// ConnsPerEndpoint stripes each class's connections (default 4).
	ConnsPerEndpoint int
	// Resilience, when set, installs retry/backoff/breaker on every
	// class's ORB; the per-class retry counts surface in the report.
	Resilience *resilience.Policy
	// Summary, when non-nil, receives a periodic one-line-per-class
	// progress summary every SummaryEvery (default 2s).
	Summary      io.Writer
	SummaryEvery time.Duration
	// ServerMetrics, when set, is harvested into the report's server-side
	// admission view: maqs_server_admitted/shed_total counters become
	// Report.ServerAdmitted/ServerSheds. Point it at the target server's
	// registry (the -self server wires this automatically).
	ServerMetrics *obs.Registry
	// Observability, when set, is the run's central bundle: every class
	// system shares its flight recorder, so anomaly dumps (SLO burns,
	// retry exhaustion, shed storms) from any class are retrievable from
	// the one /flight endpoint the -debug server mounts.
	Observability *obs.Observability
	// TailSampling, when set, installs a tail sampler in every class's
	// bundle: only anomalous (plus a healthy fraction of) traces are
	// retained, and the per-class keep/drop tallies land in the report.
	TailSampling *obs.TailSamplingConfig
}

// job is one intended request: its schedule offset from the run start
// and its payload size.
type job struct {
	off  time.Duration
	size int32
}

// classRun is the runtime state of one scenario.
type classRun struct {
	scn    Scenario
	sys    *maqs.System
	bundle *obs.Observability
	stubs  []*qos.Stub
	jobs   chan job

	corrected obs.Histogram // completion − intended schedule time (CO-correct)
	service   obs.Histogram // completion − actual send time

	scheduled atomic.Uint64
	completed atomic.Uint64
	failed    atomic.Uint64

	errMu    sync.Mutex
	errKinds map[string]uint64

	// lastCompleted/lastAt let the reporter compute windowed throughput.
	lastCompleted uint64
	lastAt        time.Time

	// elapsed is the class's own schedule-start-to-last-completion span,
	// set once when its workers drain; class throughput divides by it,
	// not by the whole run's wall clock, so concurrently running classes
	// that finish at different times report their own rates.
	elapsed time.Duration
}

// payloadBlob backs every request payload: a mildly compressible
// repeating pattern (so Compression-class traffic behaves like text, not
// like random noise) sliced to each job's size.
var payloadBlob = func() []byte {
	b := make([]byte, 1<<20)
	const pattern = "the quick brown fox jumps over the lazy qos contract 0123456789 "
	for i := range b {
		b[i] = pattern[i%len(pattern)]
	}
	return b
}()

// Runner drives one open-loop run: every scenario schedules requests at
// its intended arrival times regardless of response progress, and
// latency is measured from the intended timestamp — so queueing delay
// under overload is measured, not silently omitted (docs/LOADGEN.md).
type Runner struct {
	cfg     Config
	classes []*classRun

	start   time.Time
	started atomic.Bool
}

// NewRunner validates the config and builds the per-class systems: one
// maqs.System (own ORB, own connection stripe, own metrics registry) per
// QoS class, so retry/degrade/breaker telemetry attributes cleanly.
func NewRunner(cfg Config) (*Runner, error) {
	if cfg.Target == nil {
		return nil, fmt.Errorf("loadgen: config without target reference")
	}
	if len(cfg.Scenarios) == 0 {
		return nil, fmt.Errorf("loadgen: config without scenarios")
	}
	if cfg.ConnsPerEndpoint <= 0 {
		cfg.ConnsPerEndpoint = 4
	}
	if cfg.SummaryEvery <= 0 {
		cfg.SummaryEvery = 2 * time.Second
	}
	r := &Runner{cfg: cfg}
	seen := map[string]bool{}
	for _, raw := range cfg.Scenarios {
		scn := raw.withDefaults()
		if err := scn.validate(); err != nil {
			return nil, err
		}
		if seen[scn.Class] {
			return nil, fmt.Errorf("loadgen: duplicate class %q", scn.Class)
		}
		seen[scn.Class] = true

		bundle := obs.NewWithConfig(obs.Config{
			SpanCapacity:   64,
			FlightCapacity: 256,
			TailSampling:   cfg.TailSampling,
		})
		if cfg.Observability != nil && cfg.Observability.Flight != nil {
			bundle.Flight = cfg.Observability.Flight
			// The sampler's anomaly hook was registered on the bundle's own
			// recorder; re-arm it on the shared one so central dumps still
			// pin their traces in this class's pending table.
			if bundle.Sampler != nil {
				bundle.Flight.OnDump(func(_, _ string, traceID string) {
					bundle.Sampler.MarkAnomaly(traceID)
				})
			}
		}
		conns := cfg.ConnsPerEndpoint
		if scn.Conns > 0 {
			conns = scn.Conns
		}
		sys, err := maqs.NewSystem(maqs.Options{
			Transport:        cfg.Transport,
			ConnsPerEndpoint: conns,
			PipelineDepth:    scn.Depth,
			Observability:    bundle,
			Resilience:       cfg.Resilience,
		})
		if err != nil {
			return nil, fmt.Errorf("loadgen: class %q: %w", scn.Class, err)
		}
		c := &classRun{
			scn:      scn,
			sys:      sys,
			bundle:   bundle,
			jobs:     make(chan job, 1<<15),
			errKinds: map[string]uint64{},
		}
		r.classes = append(r.classes, c)
	}
	return r, nil
}

// Close shuts the per-class systems down.
func (r *Runner) Close() {
	for _, c := range r.classes {
		c.sys.Shutdown()
	}
}

// Run executes the full schedule (or until ctx is cancelled) and returns
// the report. It may be called once.
func (r *Runner) Run(ctx context.Context) (*Report, error) {
	for _, c := range r.classes {
		if err := c.setup(ctx, r.cfg.Target); err != nil {
			return nil, err
		}
	}

	r.start = time.Now()
	r.started.Store(true)
	for _, c := range r.classes {
		c.lastAt = r.start
	}

	var wg sync.WaitGroup
	for i, c := range r.classes {
		// Independent deterministic streams per class: schedule and
		// payload draws never interleave across classes.
		rng := rand.New(rand.NewPCG(r.cfg.Seed, uint64(i)+1))
		cwg := &sync.WaitGroup{}
		cwg.Add(1)
		go func(c *classRun) {
			defer cwg.Done()
			c.schedule(ctx, rng, r.start)
		}(c)
		for w := 0; w < c.scn.Clients; w++ {
			cwg.Add(1)
			go func(c *classRun, w int) {
				defer cwg.Done()
				c.work(ctx, r.start, w)
			}(c, w)
		}
		wg.Add(1)
		go func(c *classRun) {
			defer wg.Done()
			cwg.Wait()
			c.elapsed = time.Since(r.start)
		}(c)
	}

	stopSummary := make(chan struct{})
	var summaryDone sync.WaitGroup
	if r.cfg.Summary != nil {
		summaryDone.Add(1)
		go func() {
			defer summaryDone.Done()
			t := time.NewTicker(r.cfg.SummaryEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					r.printSummary()
				case <-stopSummary:
					return
				}
			}
		}()
	}

	wg.Wait()
	close(stopSummary)
	summaryDone.Wait()

	rep := r.buildReport(time.Since(r.start))
	if err := ctx.Err(); err != nil && !errors.Is(err, context.Canceled) {
		return rep, err
	}
	return rep, nil
}

// setup negotiates the class's characteristic for every identity and
// warms the connection stripe before the clock starts.
func (c *classRun) setup(ctx context.Context, target *ior.IOR) error {
	if mod := maqs.StandardModules()[c.scn.Characteristic]; mod != "" {
		if err := c.sys.LoadModule(mod, nil); err != nil {
			return fmt.Errorf("loadgen: class %q: loading module %s: %w", c.scn.Class, mod, err)
		}
	}
	c.stubs = make([]*qos.Stub, c.scn.Clients)
	for i := range c.stubs {
		stub := c.sys.Stub(target)
		stub.DeclareIdempotent(c.scn.Operation)
		c.stubs[i] = stub
	}

	if c.scn.Characteristic != "" {
		proposal := &qos.Proposal{Characteristic: c.scn.Characteristic}
		for name, v := range c.scn.Params {
			proposal.Params = append(proposal.Params, qos.ParamProposal{Name: name, Desired: qos.Number(v)})
		}
		// Bounded-parallel negotiation: thousands of identities would
		// otherwise serialise on round trips.
		sem := make(chan struct{}, 32)
		errCh := make(chan error, len(c.stubs))
		var wg sync.WaitGroup
		for _, stub := range c.stubs {
			wg.Add(1)
			sem <- struct{}{}
			go func(stub *qos.Stub) {
				defer wg.Done()
				defer func() { <-sem }()
				if _, err := stub.Negotiate(ctx, proposal); err != nil {
					errCh <- err
				}
			}(stub)
		}
		wg.Wait()
		close(errCh)
		if err := <-errCh; err != nil {
			return fmt.Errorf("loadgen: class %q: negotiating %s: %w", c.scn.Class, c.scn.Characteristic, err)
		}
	}

	// SLO objectives under the scenario's class name: an explicit spec
	// wins; otherwise a negotiated contract carrying max_rtt_ms supplies
	// them. Every identity then feeds the class's engine, so burn state
	// and budget land in the report and the /slo view per class.
	engine := c.sys.SLO
	switch {
	case c.scn.SLO != nil:
		engine.SetObjective(c.scn.Class, qos.Objective{Name: "errors", Target: c.scn.SLO.Target})
		if c.scn.SLO.MaxRTTMs > 0 {
			engine.SetObjective(c.scn.Class, qos.Objective{
				Name:   "latency",
				Target: c.scn.SLO.Target,
				MaxRTT: time.Duration(c.scn.SLO.MaxRTTMs * float64(time.Millisecond)),
			})
		}
	case c.scn.Characteristic != "":
		if b := c.stubs[0].Binding(); b != nil {
			engine.SetObjectivesFromContract(c.scn.Class, b.Contract)
		}
	}
	for _, stub := range c.stubs {
		stub.AddObserver(engine.Observer(c.scn.Class))
	}

	// Warm the stripe and the server path so the measured schedule does
	// not start with a dial burst.
	warm := c.scn.Clients
	if warm > 8 {
		warm = 8
	}
	for i := 0; i < warm; i++ {
		if _, err := c.stubs[i].Call(ctx, c.scn.Operation, encodePayload(c.sys.ORB.Order(), 1)); err != nil {
			return fmt.Errorf("loadgen: class %q: warmup call: %w", c.scn.Class, err)
		}
	}
	return nil
}

// schedAhead is how far ahead of the wall clock the scheduler stays:
// jobs are enqueued up to this early, and the workers do the precise
// pacing. It bounds the job channel's memory without ever distorting the
// intended timestamps.
const schedAhead = 50 * time.Millisecond

// schedule generates the intended arrival schedule into the job channel.
// Intended offsets accumulate from the arrival process alone — a slow
// server cannot push them back, which is the open-loop property.
func (c *classRun) schedule(ctx context.Context, rng *rand.Rand, start time.Time) {
	defer close(c.jobs)
	arr, _ := newArrival(c.scn.Arrival)
	pay, _ := newPayload(c.scn.Payload)
	var off time.Duration
	for i := 0; i < c.scn.Requests; i++ {
		off += time.Duration(arr.next(rng) * float64(time.Second))
		size := pay.size(rng)
		if size > len(payloadBlob) {
			size = len(payloadBlob)
		}
		if d := off - time.Since(start) - schedAhead; d > 0 {
			time.Sleep(d)
		}
		select {
		case c.jobs <- job{off: off, size: int32(size)}:
			c.scheduled.Add(1)
		case <-ctx.Done():
			return
		}
	}
}

// work is one client identity: it takes the next intended request, waits
// for its schedule time, sends, and records both the CO-correct latency
// (from the intended time) and the service latency (from the send).
// Pipelined and batched scenarios dispatch through their own loops.
func (c *classRun) work(ctx context.Context, start time.Time, id int) {
	switch c.scn.Mode {
	case "pipelined":
		c.workPipelined(ctx, start, id)
		return
	case "batched":
		c.workBatched(ctx, start, id)
		return
	}
	stub := c.stubs[id]
	order := c.sys.ORB.Order()
	for jb := range c.jobs {
		select {
		case <-ctx.Done():
			return
		default:
		}
		intended := start.Add(jb.off)
		if d := time.Until(intended); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		_, err := stub.Call(ctx, c.scn.Operation, encodePayload(order, int(jb.size)))
		c.record(intended, sent, time.Now(), nil, err)
	}
}

// record accounts one finished request.
func (c *classRun) record(intended, sent, now time.Time, out *orb.Outcome, err error) {
	c.service.Observe(now.Sub(sent))
	c.corrected.Observe(now.Sub(intended))
	c.completed.Add(1)
	if err == nil && out != nil {
		err = out.Err()
	}
	if err != nil {
		c.failed.Add(1)
		c.recordError(err)
	}
}

// pendingCall carries one in-flight asynchronous request from the
// dispatching identity to its reply collector.
type pendingCall struct {
	fut      *orb.Future
	intended time.Time
	sent     time.Time
}

// workPipelined is one identity in pipelined mode: requests dispatch with
// CallAsync at their intended times — up to Depth in flight — while a
// companion collector goroutine waits the futures out, so a slow reply
// never blocks the send side of the pipe (the ORB's per-connection
// PipelineDepth window supplies the backpressure).
func (c *classRun) workPipelined(ctx context.Context, start time.Time, id int) {
	stub := c.stubs[id]
	order := c.sys.ORB.Order()
	depth := c.scn.Depth
	if depth <= 0 {
		depth = 32
	}
	pend := make(chan pendingCall, depth)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for p := range pend {
			out, err := p.fut.Wait(ctx)
			c.record(p.intended, p.sent, time.Now(), out, err)
		}
	}()
	for jb := range c.jobs {
		select {
		case <-ctx.Done():
			close(pend)
			<-done
			return
		default:
		}
		intended := start.Add(jb.off)
		if d := time.Until(intended); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		fut, err := stub.CallAsync(ctx, c.scn.Operation, encodePayload(order, int(jb.size)))
		if err != nil {
			c.record(intended, sent, time.Now(), nil, err)
			continue
		}
		pend <- pendingCall{fut: fut, intended: intended, sent: sent}
	}
	close(pend)
	<-done
}

// workBatched is one identity in batched mode: every request that is due
// joins the current Multicall batch; the batch flushes when it reaches
// Batch elements or when no further request is due yet. Under a
// backlogged schedule this converges to full batches — one coalesced
// flush per Batch requests.
func (c *classRun) workBatched(ctx context.Context, start time.Time, id int) {
	stub := c.stubs[id]
	order := c.sys.ORB.Order()
	batch := c.scn.Batch
	if batch <= 0 {
		batch = 16
	}
	argsList := make([][]byte, 0, batch)
	intendeds := make([]time.Time, 0, batch)

	flush := func() {
		if len(argsList) == 0 {
			return
		}
		sent := time.Now()
		res := stub.Multicall(ctx, c.scn.Operation, argsList)
		now := time.Now()
		for i, r := range res {
			c.record(intendeds[i], sent, now, r.Outcome, r.Err)
		}
		argsList = argsList[:0]
		intendeds = intendeds[:0]
	}

	var carry *job
	for {
		var jb job
		if carry != nil {
			jb, carry = *carry, nil
		} else {
			var ok bool
			if jb, ok = <-c.jobs; !ok {
				break
			}
		}
		select {
		case <-ctx.Done():
			flush()
			return
		default:
		}
		intended := start.Add(jb.off)
		if d := time.Until(intended); d > 0 {
			time.Sleep(d)
		}
		argsList = append(argsList, encodePayload(order, int(jb.size)))
		intendeds = append(intendeds, intended)

		// Greedily coalesce every already-due request; stop at the batch
		// cap, at a request whose intended time is still ahead (it must
		// not be sent early), or when the queue runs dry.
	fill:
		for len(argsList) < batch {
			select {
			case next, ok := <-c.jobs:
				if !ok {
					flush()
					return
				}
				if time.Until(start.Add(next.off)) > 0 {
					carry = &next
					break fill
				}
				argsList = append(argsList, encodePayload(order, int(next.size)))
				intendeds = append(intendeds, start.Add(next.off))
			default:
				break fill
			}
		}
		flush()
	}
	flush()
}

func (c *classRun) recordError(err error) {
	kind := "error"
	var exc *orb.SystemException
	switch {
	case errors.As(err, &exc):
		kind = exc.Name
	case errors.Is(err, context.DeadlineExceeded):
		kind = "deadline"
	case errors.Is(err, context.Canceled):
		kind = "canceled"
	}
	c.errMu.Lock()
	c.errKinds[kind]++
	c.errMu.Unlock()
}

func encodePayload(order cdr.ByteOrder, size int) []byte {
	e := cdr.NewEncoder(order)
	e.WriteOctets(payloadBlob[:size])
	return e.Bytes()
}
