package resilience

import (
	"math"
	"math/rand"
	"sync"
	"time"
)

// RetryPolicy bounds how an invocation is retried after transport-level
// failures. Retries are idempotency-gated by the caller: only operations
// declared idempotent, or failures known to have happened before the
// request reached the wire, are eligible at all.
type RetryPolicy struct {
	// MaxAttempts is the total number of delivery attempts, including the
	// first. Values below 1 mean the default (3).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 10ms).
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (default 1s).
	MaxDelay time.Duration
	// Multiplier is the exponential growth factor (default 2.0).
	Multiplier float64
	// Jitter is the fraction of the computed delay that is randomised:
	// the actual sleep is uniform in [d*(1-Jitter), d*(1+Jitter)].
	// 0 disables jitter; the default is 0.2.
	Jitter float64
	// PerAttemptTimeout bounds each individual attempt, so a hung peer
	// costs one slice of the caller's budget instead of all of it. Zero
	// disables per-attempt deadlines (each attempt may run to the
	// caller's deadline).
	PerAttemptTimeout time.Duration
}

// BreakerPolicy configures the per-endpoint circuit breakers.
type BreakerPolicy struct {
	// FailureThreshold is the number of consecutive transport failures
	// that opens the breaker (default 5).
	FailureThreshold int
	// OpenTimeout is how long an open breaker rejects invocations before
	// letting probes through (default 2s).
	OpenTimeout time.Duration
	// HalfOpenProbes is how many concurrent probe invocations the
	// half-open state admits; that many consecutive successes close the
	// breaker again (default 1).
	HalfOpenProbes int
}

// Policy is the complete client resilience configuration an ORB applies
// to every invocation. The zero value of each field means its default;
// a nil *Policy disables resilience entirely (the pre-policy behaviour:
// one attempt, no health tracking).
type Policy struct {
	// Retry configures backoff-based retry.
	Retry RetryPolicy
	// Breaker configures per-endpoint circuit breaking.
	Breaker BreakerPolicy
	// Seed makes the backoff jitter reproducible. Zero seeds from the
	// wall clock (non-deterministic); tests and the chaos bench pass a
	// fixed seed.
	Seed int64
}

// normalize fills zero fields with defaults, in place.
func (p *Policy) normalize() {
	if p.Retry.MaxAttempts < 1 {
		p.Retry.MaxAttempts = 3
	}
	if p.Retry.BaseDelay <= 0 {
		p.Retry.BaseDelay = 10 * time.Millisecond
	}
	if p.Retry.MaxDelay <= 0 {
		p.Retry.MaxDelay = time.Second
	}
	if p.Retry.Multiplier <= 1 {
		p.Retry.Multiplier = 2.0
	}
	switch {
	case p.Retry.Jitter == NoJitter:
		p.Retry.Jitter = 0
	case p.Retry.Jitter <= 0 || p.Retry.Jitter > 1:
		p.Retry.Jitter = 0.2
	}
	if p.Breaker.FailureThreshold < 1 {
		p.Breaker.FailureThreshold = 5
	}
	if p.Breaker.OpenTimeout <= 0 {
		p.Breaker.OpenTimeout = 2 * time.Second
	}
	if p.Breaker.HalfOpenProbes < 1 {
		p.Breaker.HalfOpenProbes = 1
	}
}

// Normalized returns a defaulted copy of p, leaving p untouched.
func (p Policy) Normalized() Policy {
	p.normalize()
	return p
}

// NoJitter is a sentinel Jitter value for policies that want strictly
// deterministic backoff (exact exponential steps, no randomisation).
const NoJitter = -1

// Backoff computes the delay before retry number attempt (0-based: the
// delay between the first and second attempt is Backoff(0, ...)). rnd
// supplies uniform randomness in [0,1); a nil rnd disables jitter.
func (r RetryPolicy) Backoff(attempt int, rnd func() float64) time.Duration {
	d := float64(r.BaseDelay) * math.Pow(r.Multiplier, float64(attempt))
	if d > float64(r.MaxDelay) {
		d = float64(r.MaxDelay)
	}
	if r.Jitter > 0 && rnd != nil {
		// Uniform in [d*(1-J), d*(1+J)].
		d *= 1 - r.Jitter + 2*r.Jitter*rnd()
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// Rand is a mutex-guarded random source for backoff jitter (math/rand's
// Rand is not safe for concurrent use, and jitter sits on the shared
// retry path of every connection).
type Rand struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewRand constructs a jitter source. Seed 0 seeds from the wall clock.
func NewRand(seed int64) *Rand {
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Rand{rng: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform value in [0,1).
func (r *Rand) Float64() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rng.Float64()
}
