package obs

import (
	"runtime"
	"sync"
	"time"
)

// memStatsTTL bounds how often runtime.ReadMemStats runs: the call
// stops the world briefly, so scrapes within the window share a cached
// reading instead of paying for it per metric per scrape.
const memStatsTTL = 250 * time.Millisecond

// memStatsCache is process-wide on purpose — every bundle in the
// process sees the same runtime, so they share one reader.
var memStatsCache struct {
	mu   sync.Mutex
	at   time.Time
	stat runtime.MemStats
}

func readMemStats() runtime.MemStats {
	memStatsCache.mu.Lock()
	defer memStatsCache.mu.Unlock()
	if now := time.Now(); now.Sub(memStatsCache.at) > memStatsTTL {
		runtime.ReadMemStats(&memStatsCache.stat)
		memStatsCache.at = now
	}
	return memStatsCache.stat
}

// registerRuntimeMetrics surfaces Go runtime health on the registry:
//
//	maqs_go_goroutines                current goroutine count (gauge)
//	maqs_go_heap_bytes                live heap bytes (gauge)
//	maqs_go_gc_pause_seconds_total    cumulative stop-the-world pause (float)
//
// All three are callback-backed and evaluated at snapshot time; memory
// stats are cached (memStatsTTL) so frequent scrapes stay cheap.
// NewWithConfig registers them automatically; hand-built bundles can
// call this themselves. No-op on a nil registry.
func registerRuntimeMetrics(r *Registry) {
	if r == nil {
		return
	}
	r.gaugeFunc("maqs_go_goroutines", func() int64 {
		return int64(runtime.NumGoroutine())
	})
	r.gaugeFunc("maqs_go_heap_bytes", func() int64 {
		return int64(readMemStats().HeapAlloc)
	})
	r.FloatFunc("maqs_go_gc_pause_seconds_total", func() float64 {
		return time.Duration(readMemStats().PauseTotalNs).Seconds()
	})
}
