package obs

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestHandlerMetricsRoutes(t *testing.T) {
	o := New()
	o.Registry.Counter("maqs_test_total").Add(7)
	h := o.Handler()

	rec := get(t, h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "charset=utf-8") {
		t.Errorf("/metrics content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "maqs_test_total 7") {
		t.Errorf("/metrics text missing counter:\n%s", rec.Body.String())
	}

	rec = get(t, h, "/metrics?format=json")
	if ct := rec.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Errorf("/metrics?format=json content type %q", ct)
	}
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	if snap.Counters["maqs_test_total"] != 7 {
		t.Errorf("JSON counters = %v", snap.Counters)
	}
}

func TestHandlerTraceRoutesAndLimit(t *testing.T) {
	o := New()
	for _, name := range []string{"one", "two", "three"} {
		_, sp := o.Tracer.StartSpan(context.Background(), name)
		sp.End()
	}
	h := o.Handler()

	rec := get(t, h, "/trace")
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json; charset=utf-8" {
		t.Fatalf("/trace status %d ct %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	var spans []SpanRecord
	if err := json.Unmarshal(rec.Body.Bytes(), &spans); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}

	rec = get(t, h, "/trace?limit=1")
	spans = nil
	if err := json.Unmarshal(rec.Body.Bytes(), &spans); err != nil {
		t.Fatalf("limited trace JSON: %v", err)
	}
	if len(spans) != 1 || spans[0].Name != "three" {
		t.Fatalf("?limit=1 should keep the newest span, got %+v", spans)
	}

	// Filter by trace id.
	id := spans[0].TraceID
	rec = get(t, h, "/trace?trace="+id)
	spans = nil
	_ = json.Unmarshal(rec.Body.Bytes(), &spans)
	if len(spans) != 1 || spans[0].TraceID != id {
		t.Fatalf("?trace filter got %+v", spans)
	}

	for _, bad := range []string{"/trace?limit=x", "/trace?limit=-2", "/flight?limit=1.5"} {
		if rec := get(t, h, bad); rec.Code != http.StatusBadRequest {
			t.Errorf("%s status %d, want 400", bad, rec.Code)
		}
	}

	rec = get(t, h, "/trace/ops")
	var ops map[string]OpStats
	if err := json.Unmarshal(rec.Body.Bytes(), &ops); err != nil {
		t.Fatalf("ops JSON: %v", err)
	}
	if len(ops) == 0 {
		t.Error("no operation aggregates")
	}
}

func TestHandlerFlightRoutes(t *testing.T) {
	o := New()
	o.Flight.SetDumpCooldown(0)
	for i := 0; i < defaultFlightSnapshotDepth+10; i++ {
		o.Flight.Record(FlightRecord{Operation: "fetch", Outcome: "ok"})
	}
	id := o.Flight.Trigger(AnomalyRetryExhausted, FlightRecord{
		Operation: "fetch", Attempts: 3, BreakerState: "Closed", Outcome: "TRANSIENT",
	})
	h := o.Handler()

	rec := get(t, h, "/flight")
	if rec.Code != http.StatusOK {
		t.Fatalf("/flight status %d", rec.Code)
	}
	var snap FlightSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("flight JSON: %v", err)
	}
	// The unbounded index defaults to the snapshot depth.
	if len(snap.Records) != defaultFlightSnapshotDepth {
		t.Errorf("index records = %d, want default depth %d", len(snap.Records), defaultFlightSnapshotDepth)
	}
	if len(snap.Dumps) != 1 || snap.Dumps[0].ID != id {
		t.Fatalf("index dumps = %+v, want %q listed", snap.Dumps, id)
	}

	rec = get(t, h, "/flight?limit=2")
	snap = FlightSnapshot{}
	_ = json.Unmarshal(rec.Body.Bytes(), &snap)
	if len(snap.Records) != 2 {
		t.Errorf("?limit=2 records = %d", len(snap.Records))
	}

	rec = get(t, h, "/flight?dump="+id)
	if rec.Code != http.StatusOK {
		t.Fatalf("dump retrieval status %d", rec.Code)
	}
	var dump FlightDump
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
		t.Fatalf("dump JSON: %v", err)
	}
	if dump.ID != id || dump.Trigger.Attempts != 3 || dump.Trigger.BreakerState != "Closed" {
		t.Errorf("dump lost forensic fields: %+v", dump.Trigger)
	}

	if rec := get(t, h, "/flight?dump=nope"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown dump status %d, want 404", rec.Code)
	}
}

func TestHandlerHealthAndReady(t *testing.T) {
	o := New()
	h := o.Handler()

	rec := get(t, h, "/health")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"ok"`) {
		t.Fatalf("/health = %d %s", rec.Code, rec.Body.String())
	}

	// No checks: ready.
	rec = get(t, h, "/ready")
	if rec.Code != http.StatusOK {
		t.Fatalf("/ready with no checks = %d", rec.Code)
	}

	o.SetReadiness("alpha", func() (bool, string) { return true, "fine" })
	o.SetReadiness("beta", func() (bool, string) { return false, "2 breakers open" })
	rec = get(t, h, "/ready")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/ready with failing check = %d, want 503", rec.Code)
	}
	var rep ReadyReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("ready JSON: %v", err)
	}
	if rep.Ready || len(rep.Checks) != 2 {
		t.Fatalf("report = %+v", rep)
	}
	// Checks come back name-sorted.
	if rep.Checks[0].Name != "alpha" || rep.Checks[1].Name != "beta" {
		t.Errorf("check order %+v", rep.Checks)
	}
	if rep.Checks[1].Detail != "2 breakers open" {
		t.Errorf("detail lost: %+v", rep.Checks[1])
	}

	// Removing the failing check restores readiness.
	o.SetReadiness("beta", nil)
	if rec := get(t, h, "/ready"); rec.Code != http.StatusOK {
		t.Errorf("/ready after removal = %d", rec.Code)
	}
}

func TestHandlerIndexAndNotFound(t *testing.T) {
	o := New()
	h := o.Handler()
	rec := get(t, h, "/")
	if rec.Code != http.StatusOK {
		t.Fatalf("index status %d", rec.Code)
	}
	for _, want := range []string{"/metrics", "/trace", "/flight", "/health", "/ready"} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("index page missing %s", want)
		}
	}
	if rec := get(t, h, "/nope"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown path status %d", rec.Code)
	}
}

func TestReadinessNilSafetyAndLiteralBundle(t *testing.T) {
	var o *Observability
	o.SetReadiness("x", func() (bool, string) { return false, "" })
	if rep := o.Ready(); !rep.Ready {
		t.Error("nil bundle must report ready")
	}
	// A literal-constructed bundle (no New*) still supports readiness.
	lit := &Observability{Registry: NewRegistry()}
	lit.SetReadiness("only", func() (bool, string) { return false, "down" })
	if rep := lit.Ready(); rep.Ready || len(rep.Checks) != 1 {
		t.Errorf("literal bundle report = %+v", rep)
	}
}
