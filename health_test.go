package maqs_test

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"maqs"
	"maqs/internal/resilience"
)

// readyBody is the /ready JSON shape (mirrors obs.readyResponse).
type readyBody struct {
	Ready  bool `json:"ready"`
	Checks []struct {
		Name   string `json:"name"`
		OK     bool   `json:"ok"`
		Detail string `json:"detail"`
	} `json:"checks"`
}

func getStatus(t *testing.T, sys *maqs.System, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rr := httptest.NewRecorder()
	sys.Observability.Handler().ServeHTTP(rr, req)
	return rr.Code, rr.Body.String()
}

// TestHealthAndReadyUnderOpenBreaker drives the facade's "breakers"
// readiness check through a full open→closed breaker cycle: liveness
// must stay green throughout (the process is alive, just degraded),
// while readiness flips 503 and back.
func TestHealthAndReadyUnderOpenBreaker(t *testing.T) {
	n := maqs.NewNetwork()
	policy := &resilience.Policy{}
	policy.Breaker.FailureThreshold = 3
	policy.Breaker.OpenTimeout = 20 * time.Millisecond
	sys, err := maqs.NewSystem(maqs.Options{
		Transport:     n.Host("client"),
		Observability: maqs.NewObservability(),
		Resilience:    policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Shutdown)

	if code, _ := getStatus(t, sys, "/ready"); code != 200 {
		t.Fatalf("/ready before any traffic = %d, want 200", code)
	}

	// Trip one endpoint's breaker the way real traffic would: recorded
	// transport failures past the threshold.
	br := sys.ORB.Breakers().Get("server:6000")
	for i := 0; i < policy.Breaker.FailureThreshold; i++ {
		br.Record(false)
	}
	if br.State() != maqs.BreakerOpen {
		t.Fatalf("breaker state = %v, want open", br.State())
	}

	code, body := getStatus(t, sys, "/ready")
	if code != 503 {
		t.Fatalf("/ready with open breaker = %d, want 503; body %s", code, body)
	}
	var rb readyBody
	if err := json.Unmarshal([]byte(body), &rb); err != nil {
		t.Fatalf("unmarshal /ready body: %v", err)
	}
	if rb.Ready {
		t.Fatal("ready=true with an open breaker")
	}
	found := false
	for _, c := range rb.Checks {
		if c.Name == "breakers" {
			found = true
			if c.OK || !strings.Contains(c.Detail, "open") {
				t.Fatalf("breakers check = %+v, want failing with open detail", c)
			}
		}
	}
	if !found {
		t.Fatalf("no breakers check in /ready body: %s", body)
	}

	// Liveness is unaffected: an open breaker degrades, it doesn't kill.
	if code, _ := getStatus(t, sys, "/health"); code != 200 {
		t.Fatalf("/health with open breaker = %d, want 200", code)
	}

	// Heal: after the open timeout one probe is admitted; its success
	// closes the breaker and readiness flips back.
	time.Sleep(2 * policy.Breaker.OpenTimeout)
	if !br.Allow() {
		t.Fatal("breaker refused the half-open probe")
	}
	br.Record(true)
	if br.State() != maqs.BreakerClosed {
		t.Fatalf("breaker state after probe success = %v, want closed", br.State())
	}
	if code, body := getStatus(t, sys, "/ready"); code != 200 {
		t.Fatalf("/ready after recovery = %d, want 200; body %s", code, body)
	}
}
