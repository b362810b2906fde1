package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sparseroute/internal/graph/gen"
	"sparseroute/internal/obs"
	"sparseroute/internal/serial"
)

func writeHypercubeTopo(t *testing.T, dir string) string {
	t.Helper()
	topo := filepath.Join(dir, "topo.json")
	f, err := os.Create(topo)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := serial.EncodeGraph(f, gen.Hypercube(3)); err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestDebugHandlerPprofSmoke(t *testing.T) {
	ts := httptest.NewServer(debugHandler())
	defer ts.Close()
	for _, path := range []string{
		"/debug/pprof/",
		"/debug/pprof/goroutine?debug=1",
		"/debug/pprof/cmdline",
		"/debug/pprof/symbol",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d body %s", path, resp.StatusCode, raw)
		}
		if len(raw) == 0 {
			t.Fatalf("GET %s: empty body", path)
		}
	}
}

// TestDaemonObservabilitySurface is the observability acceptance pass on the
// real daemon: every epoch leaves a retrievable trace, /metrics serves valid
// Prometheus exposition, and a fail -> degraded -> recover drill is
// reconstructible from /debug/events alone — no counters, no health polls.
func TestDaemonObservabilitySurface(t *testing.T) {
	topo := writeHypercubeTopo(t, t.TempDir())
	o, err := parseFlags([]string{
		"-topo", topo, "-router", "valiant", "-s", "3", "-seed", "23", "-workers", "2",
	})
	if err != nil {
		t.Fatal(err)
	}
	url, stop := startDaemon(t, o)
	defer stop()

	// Two epochs of traffic.
	for _, body := range []string{
		`{"entries":[{"u":0,"v":7,"amount":2}]}`,
		`{"entries":[{"u":1,"v":6,"amount":1}]}`,
	} {
		resp, err := http.Post(url+"/v1/demand?wait=1", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if ep := decodeBody(t, resp); ep["solved"] != true {
			t.Fatalf("epoch not solved: %v", ep)
		}
	}

	// Every epoch yields a trace with the full lifecycle decomposition.
	resp, err := http.Get(url + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	traces, _ := decodeBody(t, resp)["traces"].([]any)
	if len(traces) != 2 {
		t.Fatalf("traces: %d, want one per epoch", len(traces))
	}
	for _, raw := range traces {
		tr := raw.(map[string]any)
		if tr["outcome"] != "solved" {
			t.Fatalf("trace %v, want solved", tr)
		}
		attempts, _ := tr["attempts"].([]any)
		if len(attempts) != 1 || attempts[0].(map[string]any)["stage"] != "adapt" {
			t.Fatalf("trace attempts %v, want one adapt", attempts)
		}
		if _, ok := tr["queue_wait_ms"].(float64); !ok {
			t.Fatalf("trace without queue wait: %v", tr)
		}
	}

	// /metrics is valid exposition and carries the engine registry.
	resp, err = http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("/metrics content type %q", ct)
	}
	if err := obs.ValidateExposition(raw); err != nil {
		t.Fatalf("/metrics invalid: %v\n%s", err, raw)
	}
	if !strings.Contains(string(raw), "sparseroute_engine_epochs_solved 2") {
		t.Fatalf("/metrics missing solved counter:\n%s", raw)
	}

	// Failure drill, then reconstruct it purely from the journal.
	for _, body := range []string{`{"fail":[0,5]}`, `{"restore":[0,5]}`} {
		resp, err := http.Post(url+"/v1/links", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("link event status %d", resp.StatusCode)
		}
	}

	resp, err = http.Get(url + "/debug/events")
	if err != nil {
		t.Fatal(err)
	}
	events, _ := decodeBody(t, resp)["events"].([]any)
	// Replay the journal: the drill must read back as a link event taking the
	// engine ok -> degraded, then a link event bringing it degraded -> ok,
	// with versions strictly increasing.
	type step struct {
		kind string
		to   string
	}
	var replay []step
	lastVersion := 0.0
	for _, raw := range events {
		ev := raw.(map[string]any)
		detail, _ := ev["detail"].(map[string]any)
		switch ev["type"] {
		case "link":
			if v := detail["version"].(float64); v <= lastVersion {
				t.Fatalf("link versions not increasing: %v after %v", v, lastVersion)
			} else {
				lastVersion = v
			}
			replay = append(replay, step{kind: "link"})
		case "health":
			replay = append(replay, step{kind: "health", to: detail["to"].(string)})
		}
	}
	want := []step{
		{kind: "link"},
		{kind: "health", to: "degraded"},
		{kind: "link"},
		{kind: "health", to: "ok"},
	}
	if len(replay) != len(want) {
		t.Fatalf("journal replay %v, want %v", replay, want)
	}
	for i := range want {
		if replay[i] != want[i] {
			t.Fatalf("journal replay step %d: %v, want %v", i, replay[i], want[i])
		}
	}
}
