package netsim

import (
	"sync/atomic"
	"time"
)

// FaultKind classifies what a FaultRule does to matching traffic.
type FaultKind int

const (
	// FaultDrop blackholes the written segment: the writer believes the
	// bytes were sent, the reader never sees them (the classic lost
	// datagram / silently dying TCP peer).
	FaultDrop FaultKind = iota
	// FaultDelay adds Delay plus uniform extra jitter in [0, Jitter) to
	// the segment's arrival time.
	FaultDelay
	// FaultCorrupt flips one byte of the segment in flight.
	FaultCorrupt
	// FaultReset severs the connection on write, as a RST would: both
	// ends observe errSevered.
	FaultReset
	// FaultPartition refuses new dials between the hosts and severs any
	// connection that writes during the rule's time window. Unlike
	// Network.Partition it heals itself when the window ends.
	FaultPartition
)

// String renders the kind for logs and stats output.
func (k FaultKind) String() string {
	switch k {
	case FaultDrop:
		return "drop"
	case FaultDelay:
		return "delay"
	case FaultCorrupt:
		return "corrupt"
	case FaultReset:
		return "reset"
	case FaultPartition:
		return "partition"
	default:
		return "unknown"
	}
}

// FaultRule schedules one failure mode for a peer pair and time window.
type FaultRule struct {
	// Kind selects the failure mode.
	Kind FaultKind
	// Src and Dst name the sending and receiving host; empty matches any
	// host. FaultPartition matches both orientations of the pair.
	Src, Dst string
	// Probability applies the rule to each write independently, in
	// [0, 1]. Zero or negative means always (1.0). Ignored by
	// FaultPartition, which is deterministic over its window.
	Probability float64
	// Delay and Jitter configure FaultDelay: every matching segment is
	// late by Delay plus a uniform extra in [0, Jitter).
	Delay  time.Duration
	Jitter time.Duration
	// From and Until bound the rule's active window, measured from the
	// moment the plan is installed. Zero Until means "until cleared".
	From, Until time.Duration
}

// matches reports whether the rule applies to a src→dst write.
func (r FaultRule) matches(src, dst string) bool {
	if r.Kind == FaultPartition {
		fwd := (r.Src == "" || r.Src == src) && (r.Dst == "" || r.Dst == dst)
		rev := (r.Src == "" || r.Src == dst) && (r.Dst == "" || r.Dst == src)
		return fwd || rev
	}
	return (r.Src == "" || r.Src == src) && (r.Dst == "" || r.Dst == dst)
}

// active reports whether the rule's window covers elapsed time since
// plan installation.
func (r FaultRule) active(elapsed time.Duration) bool {
	if elapsed < r.From {
		return false
	}
	return r.Until == 0 || elapsed < r.Until
}

// FaultPlan is a deterministic, seedable schedule of failures. Install
// it with Network.InstallFaults; the same plan and seed reproduce the
// same fault sequence for a fixed write sequence.
type FaultPlan struct {
	// Seed drives the probabilistic rules. Zero means seed 1.
	Seed int64
	// Rules are evaluated in order for every write and dial.
	Rules []FaultRule
}

// FaultStats counts the faults an injector has applied.
type FaultStats struct {
	Dropped      uint64 // segments blackholed
	Delayed      uint64 // segments given extra delay
	Corrupted    uint64 // segments with a flipped byte
	Resets       uint64 // connections severed by FaultReset
	Partitioned  uint64 // connections severed by an active partition window
	RefusedDials uint64 // dials refused by an active partition window
}

// FaultInjector applies an installed FaultPlan to the network's traffic.
// All methods are safe for concurrent use; the injector is consulted
// locklessly (atomic pointer on the Network) on every write.
type FaultInjector struct {
	plan  FaultPlan
	start time.Time
	rng   *lockedRand

	dropped      atomic.Uint64
	delayed      atomic.Uint64
	corrupted    atomic.Uint64
	resets       atomic.Uint64
	partitioned  atomic.Uint64
	refusedDials atomic.Uint64
}

// Stats snapshots the fault counters.
func (f *FaultInjector) Stats() FaultStats {
	return FaultStats{
		Dropped:      f.dropped.Load(),
		Delayed:      f.delayed.Load(),
		Corrupted:    f.corrupted.Load(),
		Resets:       f.resets.Load(),
		Partitioned:  f.partitioned.Load(),
		RefusedDials: f.refusedDials.Load(),
	}
}

// roll reports whether a probabilistic rule fires this time.
func (f *FaultInjector) roll(p float64) bool {
	if p <= 0 || p >= 1 {
		return true
	}
	return f.rng.float64() < p
}

// writeVerdict is what the injector decided for one write.
type writeVerdict struct {
	drop       bool
	sever      bool
	partition  bool // sever was caused by a partition window
	extraDelay time.Duration
}

// onWrite evaluates the plan for a src→dst write. data is the segment's
// private copy; FaultCorrupt mutates it in place. Severing rules win
// over dropping, which wins over shaping.
func (f *FaultInjector) onWrite(src, dst string, data []byte) writeVerdict {
	var v writeVerdict
	elapsed := time.Since(f.start)
	for _, r := range f.plan.Rules {
		if !r.active(elapsed) || !r.matches(src, dst) {
			continue
		}
		switch r.Kind {
		case FaultPartition:
			f.partitioned.Add(1)
			v.sever, v.partition = true, true
			return v
		case FaultReset:
			if f.roll(r.Probability) {
				f.resets.Add(1)
				v.sever = true
				return v
			}
		case FaultDrop:
			if f.roll(r.Probability) {
				f.dropped.Add(1)
				v.drop = true
			}
		case FaultCorrupt:
			if f.roll(r.Probability) && len(data) > 0 {
				f.corrupted.Add(1)
				data[f.rng.int63n(int64(len(data)))] ^= 0xFF
			}
		case FaultDelay:
			if f.roll(r.Probability) {
				f.delayed.Add(1)
				v.extraDelay += r.Delay
				if r.Jitter > 0 {
					v.extraDelay += time.Duration(f.rng.int63n(int64(r.Jitter)))
				}
			}
		}
	}
	return v
}

// refusesDial reports whether an active partition window covers a
// src→dst dial.
func (f *FaultInjector) refusesDial(src, dst string) bool {
	elapsed := time.Since(f.start)
	for _, r := range f.plan.Rules {
		if r.Kind == FaultPartition && r.active(elapsed) && r.matches(src, dst) {
			f.refusedDials.Add(1)
			return true
		}
	}
	return false
}

// InstallFaults arms the plan against all traffic on the network,
// replacing any previously installed plan, and returns the injector so
// callers can read its Stats. Rule windows are measured from this call.
func (n *Network) InstallFaults(p FaultPlan) *FaultInjector {
	seed := p.Seed
	if seed == 0 {
		seed = 1
	}
	f := &FaultInjector{plan: p, start: time.Now(), rng: newLockedRand(seed)}
	n.faults.Store(f)
	return f
}

// ClearFaults disarms fault injection.
func (n *Network) ClearFaults() {
	n.faults.Store(nil)
}
