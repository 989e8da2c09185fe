package giop

import (
	"sync/atomic"
	"time"

	"maqs/internal/obs"
)

// Frame pool and frame-size telemetry, process-global like the pool
// itself. The pool counters are plain atomics the ORB layer re-exports
// as callback instruments.
var (
	framePoolGets     atomic.Uint64
	framePoolMisses   atomic.Uint64
	framePoolOversize atomic.Uint64
)

// FramePoolStatsSnapshot is a point-in-time copy of the frame pool
// counters. A Get that fell through to New is a miss (hits = gets −
// misses); Oversize counts buffers discarded for exceeding the pooled
// capacity cap.
type FramePoolStatsSnapshot struct {
	Gets     uint64
	Misses   uint64
	Oversize uint64
}

// FramePoolStats reports cumulative frame scratch-buffer pool activity.
func FramePoolStats() FramePoolStatsSnapshot {
	return FramePoolStatsSnapshot{
		Gets:     framePoolGets.Load(),
		Misses:   framePoolMisses.Load(),
		Oversize: framePoolOversize.Load(),
	}
}

// FrameBytes records the total size (header included) of every frame
// written, in octets. The ORB exposes it as maqs_giop_frame_bytes.
var FrameBytes obs.Histogram

func observeFrameSize(n int) { FrameBytes.Observe(time.Duration(n)) }
