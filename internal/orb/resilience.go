package orb

import (
	"context"
	"errors"
	"strconv"
	"time"

	"maqs/internal/obs"
	"maqs/internal/resilience"
)

// NotSentError marks a failure that happened before the request reached
// the wire (dial failure, pooled connection already dead, breaker
// rejection). Such attempts are always safe to retry, even for
// non-idempotent operations, because the server cannot have executed
// anything. Unwrap keeps errors.As/Is working on the underlying
// exception.
type NotSentError struct{ Err error }

// Error implements error.
func (e *NotSentError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying failure.
func (e *NotSentError) Unwrap() error { return e.Err }

// notSent wraps err as a pre-wire failure (nil stays nil).
func notSent(err error) error {
	if err == nil {
		return nil
	}
	return &NotSentError{Err: err}
}

// isNotSent reports whether err is (or wraps) a pre-wire failure.
func isNotSent(err error) bool {
	var ns *NotSentError
	return errors.As(err, &ns)
}

// resilienceState is the per-ORB resilience machinery, built once at
// construction from Options.Resilience.
type resilienceState struct {
	policy   resilience.Policy
	breakers *resilience.Group
	rand     *resilience.Rand
}

func newResilienceState(o *ORB, p *resilience.Policy) *resilienceState {
	pol := p.Normalized()
	s := &resilienceState{
		policy:   pol,
		breakers: resilience.NewGroup(pol.Breaker),
		rand:     resilience.NewRand(pol.Seed),
	}
	// Fan breaker transitions into the metrics registry, the flight
	// recorder and the log. The registry handle is re-read per
	// transition so late setObservability installs are picked up.
	s.breakers.Subscribe(func(tr resilience.Transition) {
		m := o.Metrics()
		m.Counter("maqs_breaker_transitions_total").Inc()
		m.Gauge(`maqs_breaker_state{endpoint="` + tr.Endpoint + `"}`).Set(int64(tr.To))
		switch {
		case tr.To == resilience.Open:
			m.Gauge("maqs_breaker_open").Add(1)
			// An opening breaker is an anomaly in its own right: freeze
			// the invocations that drove it over the threshold.
			o.Flight().Trigger(obs.AnomalyBreakerOpen, obs.FlightRecord{
				Operation:    "(breaker)",
				Endpoint:     tr.Endpoint,
				Stripe:       -1,
				BreakerState: tr.To.String(),
				Outcome:      tr.From.String() + "->" + tr.To.String(),
				At:           tr.At,
			})
		case tr.From == resilience.Open:
			m.Gauge("maqs_breaker_open").Add(-1)
		}
		o.opts.Logger.Info("orb: breaker transition",
			"endpoint", tr.Endpoint, "from", tr.From.String(), "to", tr.To.String())
	})
	return s
}

// transportFailure reports whether an attempt failed at the transport
// level — the class of failure the breaker counts and retry may absorb.
// The client's own failures (teardown, timeout, dial) arrive as errors,
// but a server can answer TRANSIENT (shed, shutting down) in an Outcome,
// so both channels are inspected. Application-level exceptions
// (BAD_OPERATION, user exceptions, ...) are a healthy transport.
func transportFailure(out *Outcome, err error) bool {
	if err != nil {
		var sys *SystemException
		if errors.As(err, &sys) {
			return transportExc(sys)
		}
		// A deadline blown waiting on a silent peer is a transport
		// failure; the caller abandoning the call (Canceled) is not.
		return errors.Is(err, context.DeadlineExceeded)
	}
	if out == nil {
		return false
	}
	var sys *SystemException
	if e := out.Err(); errors.As(e, &sys) {
		return transportExc(sys)
	}
	return false
}

func transportExc(sys *SystemException) bool {
	switch sys.Name {
	case ExcCommFailure, ExcTransient, ExcTimeout:
		return true
	}
	return false
}

// flight is one invocation's flight record under assembly: opened at
// dispatch, sealed when the outcome is known — around deliver for a call
// with a goroutine to wait on it, in the Future for one without.
type flight struct {
	fr    *obs.FlightRecorder // nil: no recorder installed, nothing to seal
	rec   obs.FlightRecord
	start time.Time
}

// open starts the record with what is known at admission — trace linkage,
// endpoint, deadline budget — and reports whether a recorder is installed.
func (fl *flight) open(ctx context.Context, o *ORB, inv *Invocation) bool {
	fr := o.Flight()
	if fr == nil {
		return false
	}
	fl.fr = fr
	fl.rec = obs.FlightRecord{
		Operation: inv.Operation,
		Binding:   inv.Binding,
		Endpoint:  inv.Target.Profile.Addr(),
		Stripe:    -1,
	}
	if sc := obs.SpanFromContext(ctx).Context(); sc.Valid() {
		fl.rec.TraceID, fl.rec.SpanID = sc.TraceID, sc.SpanID
	}
	if dl, ok := inv.budget(ctx); ok {
		fl.rec.DeadlineBudget = time.Until(dl)
	}
	fl.start = time.Now()
	return true
}

// seal closes the record with the outcome label and wall latency and hands
// it to the recorder. Anomalies (retry exhaustion, deadline miss) freeze a
// dump.
func (fl *flight) seal(out *Outcome, err error) {
	rec := &fl.rec
	rec.Latency = time.Since(fl.start)
	rec.At = time.Now()
	rec.Outcome = outcomeLabel(out, err)
	if rec.Anomaly == "" && (rec.Outcome == ExcTimeout || rec.Outcome == "deadline-exceeded") {
		rec.Anomaly = obs.AnomalyDeadlineMiss
	}
	fl.fr.Record(*rec)
	if rec.Anomaly != "" {
		fl.fr.Trigger(rec.Anomaly, *rec)
	}
}

// send delivers inv through mod via the resilience machinery in deliver
// and, when a flight recorder is installed, wraps the delivery in a flight
// record; deliver adds what only it can see (attempt count, breaker state,
// stripe). Without a recorder the wrapper is one nil check — the
// uninstrumented fast path is untouched.
func (o *ORB) send(ctx context.Context, mod TransportModule, inv *Invocation) (*Outcome, error) {
	var fl flight
	if !fl.open(ctx, o, inv) {
		return o.deliver(ctx, mod, inv, nil)
	}
	out, err := o.deliver(ctx, mod, inv, &fl.rec)
	fl.seal(out, err)
	return out, err
}

// outcomeLabel condenses an invocation result into the flight record's
// outcome field: "ok", a system exception name, or a context verdict.
func outcomeLabel(out *Outcome, err error) string {
	e := err
	if e == nil {
		if out == nil {
			return "ok"
		}
		e = out.Err()
	}
	if e == nil {
		return "ok"
	}
	var sys *SystemException
	if errors.As(e, &sys) {
		return sys.Name
	}
	switch {
	case errors.Is(e, context.DeadlineExceeded):
		return "deadline-exceeded"
	case errors.Is(e, context.Canceled):
		return "canceled"
	}
	return "error"
}

// deliver applies the ORB's resilience policy: per-endpoint circuit
// breaking, idempotency-gated retry with exponential backoff + jitter,
// per-attempt timeouts, and deadline budget propagation. With no policy
// installed it is a plain Send. rec, when non-nil, accumulates the
// flight-record fields only this loop can see (attempts, breaker state
// at admission, stripe, retry-exhaustion anomaly).
func (o *ORB) deliver(ctx context.Context, mod TransportModule, inv *Invocation, rec *obs.FlightRecord) (*Outcome, error) {
	s := o.res
	if s == nil {
		out, err := mod.Send(ctx, inv)
		if rec != nil {
			rec.Attempts = 1
			rec.Stripe = inv.Stripe - 1
			if inv.encodeNs > 0 {
				rec.Phases = &obs.PhaseTimings{EncodeNs: inv.encodeNs}
			}
		}
		return out, err
	}
	addr := inv.Target.Profile.Addr()
	br := s.breakers.Get(addr)
	sp := obs.SpanFromContext(ctx)
	m := o.Metrics()

	var out *Outcome
	var err error
	for attempt := 0; ; attempt++ {
		if !br.Allow() {
			rej := notSent(NewSystemException(ExcTransient, 40, "circuit breaker open for %s", addr))
			if attempt == 0 {
				sp.AddEvent("breaker.state",
					obs.Attr{Key: "endpoint", Value: addr},
					obs.Attr{Key: "decision", Value: "rejected"})
				if rec != nil {
					rec.BreakerState = br.State().String()
				}
			}
			// A rejected attempt is not recorded: the breaker heals on
			// probe outcomes, not on the load it sheds.
			if out == nil && err == nil {
				err = rej
			}
			return out, err
		}

		stBefore := br.State()
		if rec != nil {
			rec.Attempts = attempt + 1
			if attempt == 0 {
				rec.BreakerState = stBefore.String()
			}
		}
		m.Counter("maqs_retry_attempts_total").Inc()
		attemptCtx, cancel := ctx, context.CancelFunc(nil)
		if pat := s.policy.Retry.PerAttemptTimeout; pat > 0 {
			attemptCtx, cancel = context.WithTimeout(ctx, pat)
		}
		// Each attempt works on its own clone: modules rewrite Contexts
		// (and replace Args) in place, and a retried invocation must
		// start from the caller's original.
		att := inv.Clone()
		out, err = mod.Send(attemptCtx, att)
		if cancel != nil {
			cancel()
		}
		if rec != nil && att.Stripe > 0 {
			rec.Stripe = att.Stripe - 1
		}
		if rec != nil && att.encodeNs > 0 {
			// Last attempt wins: the record's phase view describes the
			// delivery that produced the outcome.
			rec.Phases = &obs.PhaseTimings{EncodeNs: att.encodeNs}
		}

		failed := transportFailure(out, err)
		br.Record(!failed)
		if st := br.State(); st != stBefore {
			sp.AddEvent("breaker.state",
				obs.Attr{Key: "endpoint", Value: addr},
				obs.Attr{Key: "from", Value: stBefore.String()},
				obs.Attr{Key: "to", Value: st.String()})
		}
		if !failed {
			return out, err
		}

		// The attempt failed at the transport level. Retry only while
		// attempts remain, the failure cannot have executed server-side
		// work (pre-wire) or the operation is declared idempotent, and
		// the backoff still fits the caller's deadline budget.
		if attempt+1 >= s.policy.Retry.MaxAttempts {
			if rec != nil {
				rec.Anomaly = obs.AnomalyRetryExhausted
			}
			return out, err
		}
		if !isNotSent(err) && !inv.Idempotent {
			return out, err
		}
		if ctx.Err() != nil {
			return out, err
		}
		delay := s.policy.Retry.Backoff(attempt, s.rand.Float64)
		if dl, ok := inv.budget(ctx); ok && time.Now().Add(delay).After(dl) {
			return out, err
		}

		sp.AddEvent("retry.attempt",
			obs.Attr{Key: "attempt", Value: strconv.Itoa(attempt + 2)},
			obs.Attr{Key: "backoff", Value: delay.String()},
			obs.Attr{Key: "endpoint", Value: addr})
		m.Counter("maqs_client_retries_total").Inc()
		m.Histogram("maqs_retry_backoff_seconds", nil).Observe(delay)
		timer := time.NewTimer(delay)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return out, err
		}
	}
}

// Breakers exposes the per-endpoint circuit breakers so the QoS layer
// can react to health transitions (nil when no resilience policy is
// installed).
func (o *ORB) Breakers() *resilience.Group {
	if o.res == nil {
		return nil
	}
	return o.res.breakers
}
