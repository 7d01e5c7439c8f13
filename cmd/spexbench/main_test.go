package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestFigureTablesSmoke runs the harness at a tiny scale and checks the
// tables have the right shape (full-scale runs are exercised manually; see
// EXPERIMENTS.md).
func TestFigureTablesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var out, errBuf bytes.Buffer
	if err := run([]string{"-fig", "14", "-scale", "0.02"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"Figure 14 — mondial", "Figure 14 — wordnet", "spex [ms]", "treewalk [ms]", "_*.province.city"} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}

	out.Reset()
	if err := run([]string{"-fig", "15", "-scale", "0.002"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	text = out.String()
	for _, want := range []string{"Figure 15 — dmoz-structure", "OOM", "xscan"} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}

	out.Reset()
	if err := run([]string{"-fig", "mem", "-scale", "0.01"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "never materialized") {
		t.Errorf("memory table: %q", out.String())
	}
}

// TestJSONReport runs a tiny Figure-14 session with -json and validates the
// machine-readable report.
func TestJSONReport(t *testing.T) {
	dir := t.TempDir()
	var out, errBuf bytes.Buffer
	if err := run([]string{"-fig", "14", "-scale", "0.01", "-json", dir}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_fig14.json"))
	if err != nil {
		t.Fatal(err)
	}
	var ms []map[string]any
	if err := json.Unmarshal(data, &ms); err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 {
		t.Fatal("empty report")
	}
	for _, field := range []string{"engine", "dataset", "query", "elapsed_ns", "live_bytes"} {
		if _, ok := ms[0][field]; !ok {
			t.Errorf("missing field %q in %v", field, ms[0])
		}
	}
}

// TestServeMetrics checks the -http endpoint wiring: Prometheus text on
// /metrics, the JSON snapshot on /vars, and pprof.
func TestServeMetrics(t *testing.T) {
	m := obs.NewMetrics()
	m.Events.Add(9)
	var logBuf bytes.Buffer
	shutdown, err := serveMetrics("127.0.0.1:0", m, &logBuf)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	// The log line carries the bound address.
	line := logBuf.String()
	start := strings.Index(line, "http://")
	end := strings.Index(line, "/metrics")
	if start < 0 || end < 0 {
		t.Fatalf("log line: %q", line)
	}
	base := line[start:end]
	for path, want := range map[string]string{
		"/metrics":             "spex_events_total 9",
		"/vars":                `"events": 9`,
		"/debug/pprof/cmdline": "",
	} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", path, resp.StatusCode)
		}
		if want != "" && !strings.Contains(string(body), want) {
			t.Errorf("%s: missing %q in %q", path, want, body)
		}
	}
}

func TestBadFlag(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-definitely-not-a-flag"}, &out, &errBuf); err == nil {
		t.Fatal("bad flag should fail")
	}
}

// TestMetricsServerHardening: the sidecar server must bound header reads
// and idle connections so a stuck scraper cannot pin it, and its shutdown
// function must stop the listener.
func TestMetricsServerHardening(t *testing.T) {
	srv := newMetricsServer(obs.NewServeMux(obs.NewMetrics()))
	if srv.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout not set")
	}
	if srv.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout not set")
	}

	var errBuf bytes.Buffer
	shutdown, err := serveMetrics("127.0.0.1:0", obs.NewMetrics(), &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	line := errBuf.String()
	base := line[strings.Index(line, "http://"):]
	base = strings.TrimSpace(base[:strings.Index(base, "/metrics")])
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("scrape status %d", resp.StatusCode)
	}
	shutdown()
	shutdown() // idempotent
	if _, err := http.Get(base + "/metrics"); err == nil {
		t.Errorf("listener still accepting after shutdown")
	}
}
