package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// procStats is a snapshot of one process's cumulative resource counters.
// Two snapshots bracket a window; their difference is the window's cost.
type procStats struct {
	Mallocs    uint64 `json:"mallocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
	GCs        uint32 `json:"gcs"`
	// CPUNs is user plus system CPU time.
	CPUNs int64 `json:"cpu_ns"`
	// HWMKiB is the peak resident set size (VmHWM).
	HWMKiB int64 `json:"hwm_kib"`
}

// readProcStats snapshots the calling process. It stops the world briefly
// (runtime.ReadMemStats), so callers take it outside measured windows.
func readProcStats() procStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s := procStats{Mallocs: m.Mallocs, AllocBytes: m.TotalAlloc, GCs: m.NumGC, HWMKiB: readHWMKiB()}
	s.CPUNs = cpuTimeNs()
	return s
}

// cpuTimeNs is the process's user plus system CPU time; 0 where the
// platform does not say.
func cpuTimeNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// readHWMKiB reads VmHWM from /proc/self/status; 0 where unavailable.
func readHWMKiB() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				n, _ := strconv.ParseInt(fields[0], 10, 64) // malformed reads as 0
				return n
			}
		}
	}
	return 0
}

// sub returns the cost between an earlier snapshot and s; the peak RSS is
// carried over, not differenced.
func (s procStats) sub(earlier procStats) procStats {
	return procStats{
		Mallocs:    s.Mallocs - earlier.Mallocs,
		AllocBytes: s.AllocBytes - earlier.AllocBytes,
		GCs:        s.GCs - earlier.GCs,
		CPUNs:      s.CPUNs - earlier.CPUNs,
		HWMKiB:     s.HWMKiB,
	}
}
