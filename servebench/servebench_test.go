package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"sparseroute/internal/core"
	"sparseroute/internal/demand"
	"sparseroute/internal/graph/gen"
	"sparseroute/internal/oblivious"
	"sparseroute/internal/serial"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ q, want float64 }{
		{1, 1}, {10, 1}, {11, 2}, {50, 5}, {51, 6}, {90, 9}, {91, 10}, {99, 10}, {100, 10},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("p%v = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Error("percentile reordered its input")
	}
	if got := percentile([]float64{3}, 99); got != 3 {
		t.Errorf("p99 of one sample = %v", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v", got)
	}
}

func TestAccountingIdentity(t *testing.T) {
	exchanges := []struct {
		status int
		err    error
		solved bool
		want   bucket
	}{
		{200, nil, true, bucketOK},
		{200, nil, false, bucketUnsolved},
		{429, nil, false, bucketShed},
		{503, nil, false, bucketBusy},
		{400, nil, false, bucketClientErr},
		{409, nil, false, bucketClientErr},
		{500, nil, false, bucketServerErr},
		{302, nil, false, bucketServerErr},
		{0, errors.New("connection refused"), false, bucketTransport},
	}
	var a accounting
	for _, x := range exchanges {
		a.send()
		b := classify(x.status, x.err, x.solved)
		if b != x.want {
			t.Errorf("classify(%d, %v, %v) = %s, want %s", x.status, x.err, x.solved, bucketNames[b], bucketNames[x.want])
		}
		a.book(b)
	}
	if err := a.verify(); err != nil {
		t.Fatal(err)
	}
	if a.Sent != int64(len(exchanges)) || a.failed() != a.Sent-1 {
		t.Errorf("sent %d failed %d, want %d and %d", a.Sent, a.failed(), len(exchanges), len(exchanges)-1)
	}
	if got, want := a.errorRate(), float64(len(exchanges)-1)/float64(len(exchanges)); got != want {
		t.Errorf("error rate %v, want %v", got, want)
	}
	var b accounting
	b.merge(a)
	b.merge(a)
	if err := b.verify(); err != nil || b.Sent != 2*a.Sent {
		t.Errorf("merged accounting: sent %d, %v", b.Sent, err)
	}
	a.send() // an op sent but never booked
	if err := a.verify(); err == nil {
		t.Error("verify accepted sent != sum of buckets")
	}
}

// fakeDaemon answers POST /v1/demand?wait=1 the way routed does, except
// that reply may override the answer to the n-th mutation (1-based): it
// returns the status and body, or status 0 to drop the connection.
func fakeDaemon(t *testing.T, reply func(n int) (int, string)) *daemon {
	t.Helper()
	n := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/demand" {
			http.NotFound(w, r)
			return
		}
		n++
		status, body := reply(n)
		if status == 0 {
			if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
				conn.Close()
			}
			return
		}
		if status == http.StatusOK && body == "" {
			body = fmt.Sprintf(`{"epoch":%d,"solved":true,"congestion":1.5}`, n)
		}
		w.WriteHeader(status)
		io.WriteString(w, body)
	}))
	t.Cleanup(srv.Close)
	return &daemon{url: srv.URL}
}

// TestFailedMutationInvalidatesRun injects one failed mutation into a pass
// and checks that it is booked, that the pass stops there, and that the
// run is reported incorrect rather than with a success rate near 1.
func TestFailedMutationInvalidatesRun(t *testing.T) {
	// The third mutation (the warm-up is the first) fails; a pass that
	// meets no failure is stopped after the tenth, short of the first
	// output check.
	const failAt, stopAt = 3, 10
	w, _ := findWorkload("grid8-lp")
	g, _ := topology(w.Topology)
	for _, c := range []struct {
		name   string
		status int
		body   string
		want   bucket
	}{
		{"none", 200, "", bucketOK},
		{"busy", 503, "queue full", bucketBusy},
		{"shed", 429, "rate limited", bucketShed},
		{"bad request", 400, "bad demand", bucketClientErr},
		{"unsolved", 200, `{"epoch":3,"solved":false}`, bucketUnsolved},
		{"bad reply", 200, "not json", bucketServerErr},
		{"dropped", 0, "", bucketTransport},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		d := fakeDaemon(t, func(n int) (int, string) {
			if n == stopAt {
				cancel()
			}
			if n == failAt {
				return c.status, c.body
			}
			return 200, ""
		})
		res := &passResult{}
		ctl := &controller{cfg: runConfig{w: w, g: g}, daemon: d, client: newClient(), res: res}
		gen := newGenerator(w, g, 1)
		first := gen.next()
		if _, ok, err := ctl.mutate(first); !ok || err != nil {
			t.Fatalf("%s: warm-up failed: %v", c.name, err)
		}
		ctl.drive(ctx, gen, first, time.Hour)
		cancel()
		ctl.client.CloseIdleConnections()

		if err := res.ctl.verify(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		wantSent, wantFailed := int64(stopAt), int64(0)
		if c.want != bucketOK {
			wantSent, wantFailed = failAt, 1
			if res.ctl.Buckets[c.want] != 1 {
				t.Errorf("%s: booked %v, want one op in %s", c.name, res.ctl, bucketNames[c.want])
			}
		}
		if res.ctl.Sent != wantSent || res.ctl.failed() != wantFailed || res.checkErr != nil {
			t.Errorf("%s: %v, check error %v; want sent %d, failed %d", c.name, res.ctl, res.checkErr, wantSent, wantFailed)
		}
		// Grant the pass the congestion prefix it would need, so that only
		// the failure can make the run invalid.
		res.congs = make([]float64, congestionPrefix)
		r := endToEnd(w, res)
		if r.Correct != (c.want == bucketOK) || r.Failed != wantFailed {
			t.Errorf("%s: reported correct=%v failed=%d, success_rate %v", c.name, r.Correct, r.Failed, r.Metrics["success_rate"].Value)
		}
	}
}

func requestList(t *testing.T, w workload, seed uint64, n int) [][]byte {
	t.Helper()
	g, err := topology(w.Topology)
	if err != nil {
		t.Fatal(err)
	}
	gn := newGenerator(w, g, seed)
	var out [][]byte
	for i := 0; i < n; i++ {
		out = append(out, gn.next().Body)
	}
	return out
}

func TestRequestListDeterministic(t *testing.T) {
	for _, w := range workloads {
		n := 100
		a, b := requestList(t, w, 7, n), requestList(t, w, 7, n)
		other := requestList(t, w, 8, n)
		if len(a) != n {
			t.Fatalf("%s: %d ops", w.Name, len(a))
		}
		differ := false
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s: op %d differs between two generators with seed 7", w.Name, i)
			}
			differ = differ || !bytes.Equal(a[i], other[i])
		}
		if !differ {
			t.Errorf("%s: seeds 7 and 8 give the same request list", w.Name)
		}
	}
}

func TestGeneratorSchedule(t *testing.T) {
	w := workload{Name: "t", Topology: "hypercube-7", Pairs: 8, Patch: true, LinkEvery: 3}
	g, _ := topology(w.Topology)
	gn := newGenerator(w, g, 1)
	var kinds []opKind
	var failedEdge int
	for i := 0; i < 9; i++ {
		o := gn.next()
		kinds = append(kinds, o.Kind)
		switch o.Kind {
		case opFail:
			failedEdge = o.Edge
			if !o.Failed[o.Edge] {
				t.Error("fail op does not list its edge as failed")
			}
		case opRestore:
			if o.Edge != failedEdge || len(o.Failed) != 0 {
				t.Errorf("restore of edge %d after failing %d, failed set %v", o.Edge, failedEdge, o.Failed)
			}
		case opPatch:
			var p struct {
				Set []serial.DemandEntryJSON `json:"set"`
			}
			if err := json.Unmarshal(o.Body, &p); err != nil || len(p.Set) < 1 || len(p.Set) > 2 {
				t.Errorf("patch body %s: %v", o.Body, err)
			}
			for _, e := range p.Set {
				if o.Matrix.Get(e.U, e.V) != e.Amount {
					t.Errorf("patch sets (%d,%d) to %v, expected matrix has %v", e.U, e.V, e.Amount, o.Matrix.Get(e.U, e.V))
				}
			}
		}
	}
	want := []opKind{opPost, opPatch, opPatch, opFail, opPatch, opPatch, opPatch, opRestore, opPatch}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("op kinds %v, want %v", kinds, want)
		}
	}
}

// routingFixture is a valid GET /v1/routing reply body for a small grid,
// built from its parts so tests can corrupt one of them.
type routingFixture struct {
	Epoch      uint64             `json:"epoch"`
	Congestion float64            `json:"congestion"`
	Routing    serial.RoutingJSON `json:"routing"`
}

func TestCheckRoutingRejectsCorruption(t *testing.T) {
	g := gen.Grid(3, 3)
	router, err := oblivious.Build("raecke", g, &oblivious.BuildOptions{Trees: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := core.RSample(router, core.AllPairs(g.NumVertices()), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := demand.New()
	d.Set(0, 8, 2)
	d.Set(2, 6, 1.5)
	d.Set(1, 7, 0.25)
	r, err := ps.Adapt(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() routingFixture {
		return routingFixture{Epoch: 1, Congestion: r.MaxCongestion(g), Routing: serial.RoutingToJSON(g, r)}
	}
	body := func(f routingFixture) []byte {
		b, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if epoch, err := checkRouting(body(fresh()), g, d, nil); err != nil || epoch != 1 {
		t.Fatalf("valid routing: epoch %d, %v", epoch, err)
	}
	used := fresh().Routing.Pairs[0].Paths[0].Edges[0]
	for _, c := range []struct {
		name    string
		corrupt func(*routingFixture)
		failed  map[int]bool
		want    string
	}{
		{"amount", func(f *routingFixture) { f.Routing.Pairs[0].Paths[0].Weight *= 1.01 }, nil, "routes"},
		{"missing pair", func(f *routingFixture) { f.Routing.Pairs = f.Routing.Pairs[1:] }, nil, "routes"},
		{"extra pair", func(f *routingFixture) { f.Routing.Pairs[0].U, f.Routing.Pairs[0].V = 0, 1 }, nil, ""},
		{"broken path", func(f *routingFixture) {
			p := &f.Routing.Pairs[0].Paths[0]
			p.Edges = p.Edges[:len(p.Edges)-1]
		}, nil, "path"},
		{"failed edge", func(*routingFixture) {}, map[int]bool{used: true}, "failed edge"},
		{"congestion", func(f *routingFixture) { f.Congestion *= 1.001 }, nil, "congestion"},
		{"not json", nil, nil, "decoding"},
	} {
		f := fresh()
		b := []byte("{")
		if c.corrupt != nil {
			c.corrupt(&f)
			b = body(f)
		}
		_, err := checkRouting(b, g, d, c.failed)
		if err == nil {
			t.Errorf("%s: corrupted routing passed the check", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestContextRecordsWorkloads keeps context.json and BENCHMARK.json in step
// with the workload table.
func TestContextRecordsWorkloads(t *testing.T) {
	raw, err := os.ReadFile("context.json")
	if err != nil {
		t.Fatal(err)
	}
	var ctx struct {
		Seeds struct {
			Default *uint64 `json:"default"`
			HeldOut *uint64 `json:"held_out"`
		} `json:"seeds"`
		Workloads []struct {
			Name         string `json:"name"`
			Why          string `json:"why"`
			Exercises    string `json:"exercises"`
			Bypasses     string `json:"bypasses"`
			Topology     string `json:"topology"`
			DemandModel  string `json:"demand_model"`
			Mutation     string `json:"mutation"`
			Pairs        int    `json:"pairs"`
			R            int    `json:"R"`
			ReadRatePerS int    `json:"read_rate_per_s"`
			LinkEvery    int    `json:"link_every"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &ctx); err != nil {
		t.Fatal(err)
	}
	if ctx.Seeds.Default == nil || ctx.Seeds.HeldOut == nil || *ctx.Seeds.Default == *ctx.Seeds.HeldOut {
		t.Error("context.json must name a default seed and a different held-out seed")
	}
	if len(ctx.Workloads) != len(workloads) {
		t.Fatalf("context.json has %d workloads, the table %d", len(ctx.Workloads), len(workloads))
	}
	for i, w := range workloads {
		c := ctx.Workloads[i]
		if c.Name != w.Name || c.Topology != w.Topology || c.Pairs != w.Pairs || c.LinkEvery != w.LinkEvery ||
			c.R != 4 || c.ReadRatePerS != 50 {
			t.Errorf("context.json workload %d = %+v, table has %+v", i, c, w)
		}
		if w.LinkEvery > 0 && !w.Patch {
			t.Errorf("%s has link events but no patches; the replay cannot serve them", w.Name)
		}
		if c.Why == "" || c.Exercises == "" || c.Bypasses == "" || c.DemandModel == "" || c.Mutation == "" {
			t.Errorf("context.json workload %s lacks a reason, layer or demand model", c.Name)
		}
	}
	raw, err = os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the table %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bench.Workloads[i].Name != w.Name {
			t.Errorf("BENCHMARK.json workload %d is %q, the table has %q", i, bench.Workloads[i].Name, w.Name)
		}
	}
}
