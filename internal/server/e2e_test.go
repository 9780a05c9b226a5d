package server

import (
	"paqoc/internal/api"

	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"paqoc/internal/obs"
	"paqoc/internal/pulse"
)

// newHTTPServer serves an already-built Server over httptest without the
// auto-shutdown cleanup of newTestServer (for tests that shut down
// explicitly).
func newHTTPServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// metricsSnapshot scrapes and decodes GET /metrics.
func metricsSnapshot(t *testing.T, url string) (counters map[string]int64) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap.Counters
}

// TestE2ESyncCompile: a small circuit compiles synchronously through the
// real pipeline (analytical generator) and reports a sane summary.
func TestE2ESyncCompile(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Backend: "xy-grid-2x2"})
	code, out := postCompile(t, ts, api.CompileRequest{Circuit: "qubits 2\nh 0\ncx 0 1\ncx 0 1\nh 0\n"})
	if code != http.StatusOK {
		t.Fatalf("HTTP %d: %+v", code, out)
	}
	if out.State != api.StateDone || out.Result == nil {
		t.Fatalf("status = %+v", out.JobStatus)
	}
	r := out.Result
	if r.Blocks < 1 || r.LatencyDt <= 0 || r.InitialLatencyDt < r.LatencyDt {
		t.Errorf("implausible result: %+v", r)
	}
	if r.ESP <= 0 || r.ESP > 1 {
		t.Errorf("ESP out of range: %v", r.ESP)
	}
	if len(r.Stages) == 0 {
		t.Error("result carries no per-stage summary")
	}
	for _, g := range r.Gates {
		if g.Schedule != nil {
			t.Error("schedules attached without include_schedules")
		}
	}
}

// TestE2EConcurrentCompiles: many concurrent synchronous requests all
// complete against the shared worker pool and pulse database.
func TestE2EConcurrentCompiles(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 32, Backend: "xy-grid-2x2"})
	circuits := []string{
		"qubits 2\nh 0\ncx 0 1\n",
		"qubits 3\nh 0\ncx 0 1\ncx 1 2\n",
		"qubits 2\ncx 0 1\ncx 1 0\n",
		"qubits 3\nx 0\ncx 0 2\nh 1\n",
	}
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, out := postCompile(t, ts, api.CompileRequest{Circuit: circuits[i%len(circuits)], Mode: "sync"})
			if code != http.StatusOK || out.State != api.StateDone {
				errs <- out.Error
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("concurrent compile failed: %s", e)
	}
}

// TestE2EWarmDBSecondRequest is the warm-cache smoke test: the same small
// circuit compiled twice with real GRAPE must serve the second request
// from the shared pulse database (grape.db_hits or pulse.db_dedups > 0)
// and report the reuse as cache hits on the gates.
func TestE2EWarmDBSecondRequest(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Backend: "xy-grid-1x2"})
	req := api.CompileRequest{Circuit: tinyCircuit, Grape: true, Mode: "sync", TimeoutMs: 120_000}

	code, out := postCompile(t, ts, req)
	if code != http.StatusOK {
		t.Fatalf("first request: HTTP %d: %+v", code, out.JobStatus)
	}
	if out.Result.DBEntries == 0 {
		t.Fatal("first GRAPE compile stored nothing in the shared DB")
	}

	code, out = postCompile(t, ts, req)
	if code != http.StatusOK {
		t.Fatalf("second request: HTTP %d: %+v", code, out.JobStatus)
	}
	counters := metricsSnapshot(t, ts.URL)
	if counters["grape.db_hits"]+counters["pulse.db_dedups"] == 0 {
		t.Fatalf("second request not served from the warm DB: grape.db_hits=%d pulse.db_dedups=%d",
			counters["grape.db_hits"], counters["pulse.db_dedups"])
	}
	hit := false
	for _, g := range out.Result.Gates {
		hit = hit || g.CacheHit
	}
	if !hit {
		t.Error("no gate of the second compile reported cache_hit")
	}
}

// TestE2EDeadlineExceeded: a GRAPE job with a hopeless deadline fails with
// 504/timed_out — and the worker it ran on is free to serve the next
// request immediately.
func TestE2EDeadlineExceeded(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Backend: "xy-grid-1x2"})
	code, out := postCompile(t, ts, api.CompileRequest{Circuit: tinyCircuit, Grape: true, Mode: "sync", TimeoutMs: 1})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("hopeless deadline: HTTP %d (%+v), want 504", code, out.JobStatus)
	}
	if out.State != api.StateFailed || !out.TimedOut {
		t.Fatalf("status = %+v, want failed+timed_out", out.JobStatus)
	}

	// The single worker must not be wedged: an analytical compile succeeds.
	code, out = postCompile(t, ts, api.CompileRequest{Circuit: tinyCircuit, Mode: "sync"})
	if code != http.StatusOK || out.State != api.StateDone {
		t.Fatalf("worker wedged after timeout: HTTP %d, %+v", code, out.JobStatus)
	}
}

// TestE2ELiveCompileTelemetry drives a real GRAPE compile and checks the
// full telemetry surface: the SSE stream delivers at least one stage event
// and one convergence event before the terminal event, the shared
// registry's per-stage histograms report non-zero quantiles afterwards,
// and GET /metrics?format=prom serves the histogram triplets.
func TestE2ELiveCompileTelemetry(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, Backend: "xy-grid-1x2"})
	code, out := postCompile(t, ts, api.CompileRequest{Circuit: tinyCircuit, Grape: true, Mode: "async", TimeoutMs: 120_000})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %+v", code, out.JobStatus)
	}
	frames := getSSE(t, ts, out.JobID)
	stages, convs := checkSSEStream(t, frames, string(api.StateDone))
	if stages == 0 || convs == 0 {
		t.Fatalf("live stream delivered %d stage and %d convergence events, want >= 1 of each", stages, convs)
	}

	// The pipeline populated the shared per-stage histogram family with
	// real wall times: quantiles must be non-zero wherever samples landed.
	snap := s.reg.Snapshot()
	fam, ok := snap.HistogramVecs[obs.StageMetric]
	if !ok {
		t.Fatalf("%s missing from the registry snapshot", obs.StageMetric)
	}
	seen := map[string]bool{}
	for _, se := range fam.Series {
		if se.Count == 0 {
			continue
		}
		seen[se.Values[0]] = true
		if se.P50 <= 0 || se.P99 <= 0 || se.P99 < se.P50 {
			t.Errorf("stage %q: p50=%g p99=%g (count=%d), want 0 < p50 <= p99", se.Values[0], se.P50, se.P99, se.Count)
		}
	}
	for _, stage := range []string{"optimize", "emit", "grape"} {
		if !seen[stage] {
			t.Errorf("no %q samples in %s after a GRAPE compile", stage, obs.StageMetric)
		}
	}
	if qw := snap.Histograms["server.queue_wait_ms"]; qw.Count == 0 {
		t.Error("server.queue_wait_ms recorded nothing")
	}
	if jm, ok := snap.HistogramVecs["server.job_ms"]; !ok || len(jm.Series) == 0 {
		t.Error("server.job_ms family empty")
	}

	// The same data must scrape in Prometheus text exposition format.
	resp, err := http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("prom Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE paqoc_stage_ms histogram",
		`paqoc_stage_ms_bucket{stage="grape",le="+Inf"}`,
		`paqoc_stage_ms_sum{stage="grape"}`,
		`paqoc_stage_ms_count{stage="grape"}`,
		"# TYPE server_job_ms histogram",
		"# TYPE runtime_goroutines gauge",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("prom exposition missing %q", want)
		}
	}
}

// TestE2EShutdownPersistsDB: graceful shutdown saves the warm database
// crash-safely, and a new server starts warm from the file.
func TestE2EShutdownPersistsDB(t *testing.T) {
	dbPath := filepath.Join(t.TempDir(), "pulses.db")
	cfg := Config{Workers: 2, Backend: "xy-grid-1x2", DBPath: dbPath, Logger: quiet}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := newHTTPServer(t, s)

	code, out := postCompile(t, ts, api.CompileRequest{Circuit: tinyCircuit, Grape: true, Mode: "sync", TimeoutMs: 120_000})
	if code != http.StatusOK {
		t.Fatalf("compile: HTTP %d: %+v", code, out.JobStatus)
	}
	entries := out.Result.DBEntries
	if entries == 0 {
		t.Fatal("nothing stored in the DB")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	re, ok, err := pulse.LoadFile(dbPath)
	if err != nil || !ok {
		t.Fatalf("reloading persisted DB: ok=%v err=%v", ok, err)
	}
	if re.Len() != entries {
		t.Fatalf("persisted DB holds %d entries, want %d", re.Len(), entries)
	}

	// A second server starts warm from the file.
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s2.DB().Len() != entries {
		t.Fatalf("restarted server loaded %d entries, want %d", s2.DB().Len(), entries)
	}
}
