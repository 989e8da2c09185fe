package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// WindowCounter is a rolling counter over a ring of one-second cells: a
// single instrument answers "how many in the last 5s / 1m / 5m" without
// storing per-event timestamps. Adds are a single atomic increment in
// the steady state (the current second's cell is already claimed); a
// short mutex hold happens only once per second per cell, when the ring
// rotates into a stale slot. Reads walk at most the requested window's
// worth of cells and verify each cell's epoch, so expired data never
// leaks into a sum.
//
// A nil *WindowCounter is the disabled instrument: Add and Sum are
// no-ops, matching the registry's nil-safe instrument convention.
type WindowCounter struct {
	cells []windowCell
	mu    sync.Mutex // serialises cell rotation only
	// now returns the current unix second; replaceable in tests.
	now func() int64
}

// windowCell holds one second's count. epoch is the unix second the
// count belongs to; a cell whose epoch doesn't match the second being
// read is stale ring residue and reads as zero.
type windowCell struct {
	epoch atomic.Int64
	v     atomic.Uint64
}

// maxWindow is the longest span a WindowCounter retains (the default
// ring covers the 5m budget view plus slack for edge cells).
const maxWindow = 5*time.Minute + 5*time.Second

// NewWindowCounter constructs a counter retaining span worth of
// one-second cells (non-positive or oversized spans take maxWindow).
func NewWindowCounter(span time.Duration) *WindowCounter {
	if span <= 0 || span > maxWindow {
		span = maxWindow
	}
	cells := int(span/time.Second) + 1
	return &WindowCounter{
		cells: make([]windowCell, cells),
		now:   func() int64 { return time.Now().Unix() },
	}
}

// SetClock replaces the counter's unix-second source. It exists so
// window arithmetic can be tested deterministically; production
// counters keep the real clock.
func (w *WindowCounter) SetClock(now func() int64) {
	if w == nil || now == nil {
		return
	}
	w.now = now
}

// Add records n events at the current second.
func (w *WindowCounter) Add(n uint64) {
	if w == nil {
		return
	}
	now := w.now()
	c := &w.cells[int(now%int64(len(w.cells)))]
	if c.epoch.Load() == now {
		c.v.Add(n)
		return
	}
	// The cell still holds an older second: rotate it under the lock so
	// concurrent adders can't interleave reset and increment. The value
	// is zeroed before the epoch flips, so fast-path adders that observe
	// the new epoch always land on a clean cell.
	w.mu.Lock()
	if c.epoch.Load() < now {
		c.v.Store(0)
		c.epoch.Store(now)
	}
	w.mu.Unlock()
	if c.epoch.Load() == now {
		c.v.Add(n)
	}
}

// Inc records one event at the current second.
func (w *WindowCounter) Inc() { w.Add(1) }

// Sum totals the events recorded in the trailing window (including the
// current, partially elapsed second). Windows longer than the ring are
// clamped to the ring's span.
func (w *WindowCounter) Sum(window time.Duration) uint64 {
	if w == nil {
		return 0
	}
	secs := int(window / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > len(w.cells)-1 {
		secs = len(w.cells) - 1
	}
	now := w.now()
	var sum uint64
	for i := 0; i < secs; i++ {
		sec := now - int64(i)
		if sec < 0 {
			break
		}
		c := &w.cells[int(sec%int64(len(w.cells)))]
		if c.epoch.Load() == sec {
			sum += c.v.Load()
		}
	}
	return sum
}

// Reset zeroes every cell in place, without allocating a new ring. An Add
// racing with it lands on either side of the reset.
func (w *WindowCounter) Reset() {
	if w == nil {
		return
	}
	w.mu.Lock()
	for i := range w.cells {
		w.cells[i].v.Store(0)
	}
	w.mu.Unlock()
}

// Rate is Sum over the window expressed as events per second.
func (w *WindowCounter) Rate(window time.Duration) float64 {
	if w == nil || window <= 0 {
		return 0
	}
	return float64(w.Sum(window)) / window.Seconds()
}
