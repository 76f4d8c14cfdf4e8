package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestHealthzJSON pins the /healthz document shape: a JSON object with
// status, uptime and the two queue numbers an operator checks first —
// not the bare "ok" string it used to be, which monitoring templates
// could not chart.
func TestHealthzJSON(t *testing.T) {
	_, ts, _ := startServer(t, t.TempDir())
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz: status %d", resp.StatusCode)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decoding healthz: %v", err)
	}
	if h.Status != "ok" {
		t.Fatalf("healthz status = %q, want ok", h.Status)
	}
	if h.UptimeS < 0 {
		t.Fatalf("healthz uptime_s = %v, want >= 0", h.UptimeS)
	}
	if h.JobsRunning != 0 || h.QueueDepth != 0 {
		t.Fatalf("idle daemon reports jobs_running=%d queue_depth=%d, want 0/0", h.JobsRunning, h.QueueDepth)
	}
}

// TestMetricsEndpoint runs one small campaign to completion and then
// scrapes /metrics: the Prometheus text must carry the daemon gauges
// (queue depth, jobs by state, cells/s) and the campaign counters the
// runner fed through the shared registry. Scraping is read-only
// telemetry — it must not disturb the job or its artifact (determinism
// clause 9; the byte-identity itself is pinned by the campaign and
// CLI tests).
func TestMetricsEndpoint(t *testing.T) {
	_, ts, _ := startServer(t, t.TempDir())
	spec := tinySpec()
	code, j := postSpec(t, ts, spec)
	if code != http.StatusCreated {
		t.Fatalf("submit: status %d", code)
	}
	waitState(t, ts, j.ID, "done", func(j job) bool { return j.State == "done" })

	body, ctype := scrapeMetrics(t, ts)
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Fatalf("metrics Content-Type = %q, want text/plain; version=0.0.4", ctype)
	}
	for _, want := range []string{
		"# TYPE llcserve_jobs gauge",
		`llcserve_jobs{state="done"} 1`,
		`llcserve_jobs{state="running"} 0`,
		"llcserve_queue_depth 0",
		"llcserve_uptime_seconds ",
		"llcserve_cells_per_second ",
		"llcserve_event_clients 0",
		"# TYPE campaign_cells_total counter",
		`campaign_cells_total{state="computed"} 4`,
		"# TYPE campaign_cell_seconds histogram",
		"campaign_cell_seconds_count 4",
		"# TYPE campaign_append_bytes_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output lacks %q; got:\n%s", want, body)
		}
	}
}

func scrapeMetrics(t *testing.T, ts *httptest.Server) (body, contentType string) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading metrics: %v", err)
	}
	return string(data), resp.Header.Get("Content-Type")
}
