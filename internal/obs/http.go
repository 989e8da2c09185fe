package obs

import (
	"encoding/json"
	"net/http"
	"strconv"
)

// Handler serves the debug endpoints over the bundle:
//
//	/metrics              text exposition of the registry
//	/metrics?format=json  the same as JSON
//	/trace                retained spans as JSON, oldest first
//	/trace?trace=<id>     one trace's spans, ordered by start time
//	/trace/ops            per-operation span aggregation as JSON
//	/flight               flight-recorder ring + anomaly dump index
//	/flight?dump=<id>     one frozen anomaly dump
//	/health               liveness (200 as long as the process serves)
//	/ready                readiness checks as JSON; 503 when any fails
//
// /trace and /flight honour ?limit=N to bound the records returned
// (newest N), so a large ring cannot produce a multi-MB response.
// Mount it on any mux or serve it directly (cmd/maqs-server does).
func (o *Observability) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		snap := o.Registry.Snapshot()
		if r.URL.Query().Get("format") == "json" {
			writeJSON(w, snap)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = snap.WriteText(w)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		var spans []SpanRecord
		id := r.URL.Query().Get("trace")
		if id == "" {
			id = r.URL.Query().Get("trace_id")
		}
		if id != "" {
			spans = o.Collector.spansOf(id)
		} else {
			spans = o.Collector.Snapshot()
		}
		if limit, ok := limitParam(w, r); !ok {
			return
		} else if limit > 0 && limit < len(spans) {
			spans = spans[len(spans)-limit:]
		}
		writeJSON(w, spans)
	})
	mux.HandleFunc("/trace/ops", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, o.Collector.Operations())
	})
	mux.HandleFunc("/flight", func(w http.ResponseWriter, r *http.Request) {
		var fr *FlightRecorder
		if o != nil {
			fr = o.Flight
		}
		if id := r.URL.Query().Get("dump"); id != "" {
			d, ok := fr.Dump(id)
			if !ok {
				http.Error(w, "unknown dump id", http.StatusNotFound)
				return
			}
			writeJSON(w, d)
			return
		}
		limit, ok := limitParam(w, r)
		if !ok {
			return
		}
		if limit == 0 {
			// Unbounded /flight defaults to the dump snapshot depth so
			// the index page stays small; ?limit=-1 is not offered —
			// dumps carry the forensic tail.
			limit = defaultFlightSnapshotDepth
		}
		writeJSON(w, fr.Snapshot(limit))
	})
	mux.HandleFunc("/profile", func(w http.ResponseWriter, r *http.Request) {
		var p *Profiler
		if o != nil {
			p = o.Profiler
		}
		id := r.URL.Query().Get("id")
		if id == "" {
			caps := p.summaries()
			if caps == nil {
				caps = []ProfileCaptureSummary{}
			}
			writeJSON(w, map[string]any{"enabled": p != nil, "captures": caps})
			return
		}
		c, ok := p.lookup(id)
		if !ok {
			http.Error(w, "unknown capture id", http.StatusNotFound)
			return
		}
		var body []byte
		switch kind := r.URL.Query().Get("kind"); kind {
		case "", "cpu":
			body = c.CPU
		case "heap":
			body = c.Heap
		default:
			http.Error(w, "kind must be cpu or heap", http.StatusBadRequest)
			return
		}
		if len(body) == 0 {
			http.Error(w, "profile not (yet) available for this capture", http.StatusNotFound)
			return
		}
		// pprof payloads are binary protobuf (possibly gzip-compressed);
		// serve them raw for `go tool pprof`.
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(body)
	})
	mux.HandleFunc("/health", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/ready", func(w http.ResponseWriter, r *http.Request) {
		rep := o.Ready()
		if !rep.Ready {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			w.WriteHeader(http.StatusServiceUnavailable)
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(rep)
			return
		}
		writeJSON(w, rep)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			// Dynamically mounted debug pages (SetDebugPage) serve any
			// path the built-ins don't own — e.g. /slo.
			if o != nil {
				if fn, ok := o.pages.Load(r.URL.Path); ok {
					writeJSON(w, fn.(func() any)())
					return
				}
			}
			http.NotFound(w, r)
			return
		}
		paths := []string{
			"/metrics", "/metrics?format=json", "/trace", "/trace?trace_id=<id>",
			"/trace/ops", "/flight", "/flight?dump=<id>",
			"/profile", "/profile?id=<id>&kind=cpu|heap", "/health", "/ready",
		}
		if o != nil {
			o.pages.Range(func(k, _ any) bool {
				paths = append(paths, k.(string))
				return true
			})
		}
		// The index honours ?format=json like every other endpoint, so
		// tooling can discover the surface without scraping text.
		if r.URL.Query().Get("format") == "json" {
			writeJSON(w, map[string]any{"service": "maqs observability", "endpoints": paths})
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("maqs observability\n\n"))
		for _, p := range paths {
			_, _ = w.Write([]byte(p + "\n"))
		}
		_, _ = w.Write([]byte("\n/trace and /flight accept ?limit=N\n"))
	})
	return mux
}

// limitParam parses ?limit=N (0 when absent). On a malformed or
// negative value it writes a 400 and reports ok=false.
func limitParam(w http.ResponseWriter, r *http.Request) (int, bool) {
	raw := r.URL.Query().Get("limit")
	if raw == "" {
		return 0, true
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 0 {
		http.Error(w, "limit must be a non-negative integer", http.StatusBadRequest)
		return 0, false
	}
	return n, true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
