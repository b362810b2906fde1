package obs

import (
	"bytes"
	"context"
	"expvar"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestJournalOrderAndWraparound(t *testing.T) {
	j := NewJournal(4)
	if got := j.Events(); len(got) != 0 {
		t.Fatalf("fresh journal has %d events", len(got))
	}
	for i := 0; i < 6; i++ {
		j.RecordShard("abilene", EventLink, map[string]any{"i": i})
	}
	evs := j.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4 (bounded)", len(evs))
	}
	// Oldest-first, strictly increasing seq, earliest two evicted.
	for i, ev := range evs {
		wantSeq := uint64(i + 3)
		if ev.Seq != wantSeq {
			t.Fatalf("event %d: seq %d, want %d", i, ev.Seq, wantSeq)
		}
		if ev.Type != EventLink || ev.Shard != "abilene" {
			t.Fatalf("event %d: type %q shard %q", i, ev.Type, ev.Shard)
		}
		if ev.Detail["i"] != i+2 {
			t.Fatalf("event %d: detail %v", i, ev.Detail)
		}
	}
	if j.Seq() != 6 {
		t.Fatalf("Seq = %d, want 6", j.Seq())
	}
}

func TestJournalEventsFor(t *testing.T) {
	j := NewJournal(8)
	j.RecordShard("a", EventLink, nil)
	j.Record(EventDrain, nil)
	j.RecordShard("b", EventEviction, nil)
	j.RecordShard("a", EventHealth, map[string]any{"to": "degraded"})

	a := j.EventsFor("a")
	if len(a) != 2 || a[0].Type != EventLink || a[1].Type != EventHealth {
		t.Fatalf("EventsFor(a) = %+v", a)
	}
	if got := j.EventsFor("missing"); len(got) != 0 {
		t.Fatalf("EventsFor(missing) = %+v", got)
	}
	// Untagged events are addressable via the empty shard.
	if got := j.EventsFor(""); len(got) != 1 || got[0].Type != EventDrain {
		t.Fatalf("EventsFor(\"\") = %+v", got)
	}
}

func TestJournalConcurrent(t *testing.T) {
	j := NewJournal(32)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				j.RecordShard(fmt.Sprintf("s%d", w), EventLink, nil)
				_ = j.Events()
			}
		}(w)
	}
	wg.Wait()
	evs := j.Events()
	if len(evs) != 32 {
		t.Fatalf("got %d events, want 32", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("seq not contiguous at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
}

func TestTracerRingNewestFirst(t *testing.T) {
	tr := NewTracer(3, 0, slog.New(slog.NewTextHandler(new(bytes.Buffer), nil)))
	for e := uint64(1); e <= 5; e++ {
		tr.Record(&EpochTrace{Epoch: e})
	}
	got := tr.Traces(0)
	if len(got) != 3 {
		t.Fatalf("got %d traces, want 3", len(got))
	}
	for i, want := range []uint64{5, 4, 3} {
		if got[i].Epoch != want {
			t.Fatalf("trace %d: epoch %d, want %d", i, got[i].Epoch, want)
		}
	}
	if one := tr.Traces(1); len(one) != 1 || one[0].Epoch != 5 {
		t.Fatalf("Traces(1) = %+v", one)
	}
	if many := tr.Traces(99); len(many) != 3 {
		t.Fatalf("Traces(99) returned %d", len(many))
	}
}

func TestTracerSlowLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	tr := NewTracer(8, 50*time.Millisecond, logger)

	if tr.Record(&EpochTrace{Epoch: 1, TotalMs: 10}) {
		t.Fatal("fast epoch flagged slow")
	}
	if buf.Len() != 0 {
		t.Fatalf("fast epoch logged: %s", buf.String())
	}
	if !tr.Record(&EpochTrace{Epoch: 2, TotalMs: 80, Outcome: OutcomeSolved, MWURounds: 256}) {
		t.Fatal("slow epoch not flagged")
	}
	out := buf.String()
	for _, want := range []string{"slow epoch", `"epoch":2`, `"total_ms":80`, `"mwu_rounds":256`} {
		if !strings.Contains(out, want) {
			t.Fatalf("slow log missing %q: %s", want, out)
		}
	}
}

func TestTracerProgressLifecycle(t *testing.T) {
	tr := NewTracer(1, 0, slog.New(slog.NewTextHandler(new(bytes.Buffer), nil)))
	if tr.Progress() != nil {
		t.Fatal("fresh tracer has in-flight progress")
	}
	tr.SetProgress(&SolveProgress{Epoch: 7, Round: 12, Congestion: 1.5})
	if p := tr.Progress(); p == nil || p.Round != 12 {
		t.Fatalf("Progress = %+v", p)
	}
	// Clearing a different epoch leaves a fresher worker's progress alone.
	tr.ClearProgress(6)
	if tr.Progress() == nil {
		t.Fatal("ClearProgress(6) dropped epoch 7's progress")
	}
	tr.ClearProgress(7)
	if tr.Progress() != nil {
		t.Fatal("ClearProgress(7) kept progress")
	}
}

func newTestVars() *expvar.Map {
	m := new(expvar.Map).Init()
	m.Add("epochs_received", 42)
	f := new(expvar.Float)
	f.Set(1.25)
	m.Set("congestion", f)
	m.Set("solve_latency_seconds", expvar.Func(func() any {
		return map[string]float64{"p50": 0.01, "p99": 0.05}
	}))
	m.Set("path_system", expvar.Func(func() any {
		return map[string]any{"hash": "sha256:ab\"cd", "paths": 128, "router": "racke"}
	}))
	m.Set("active_epoch", expvar.Func(func() any { return uint64(9) }))
	return m
}

func TestPromFromVarsAndValidate(t *testing.T) {
	p := NewProm()
	p.FromVars("sparseroute_engine", map[string]string{"topo": "ab\\il\"ene"}, newTestVars())
	p.Gauge("sparseroute_fleet_resident", nil, 2)

	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("own output invalid: %v\n%s", err, out)
	}
	for _, want := range []string{
		"# TYPE sparseroute_engine_epochs_received gauge\n",
		`sparseroute_engine_epochs_received{topo="ab\\il\"ene"} 42`,
		`sparseroute_engine_congestion{topo="ab\\il\"ene"} 1.25`,
		`sparseroute_engine_solve_latency_seconds{stat="p50",topo="ab\\il\"ene"} 0.01`,
		`sparseroute_engine_solve_latency_seconds{stat="p99",topo="ab\\il\"ene"} 0.05`,
		`sparseroute_engine_path_system{stat="paths",topo="ab\\il\"ene"} 128`,
		`sparseroute_engine_path_system_info{hash="sha256:ab\"cd",router="racke",topo="ab\\il\"ene"} 1`,
		`sparseroute_engine_active_epoch{topo="ab\\il\"ene"} 9`,
		"sparseroute_fleet_resident 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestPromGroupsInterleavedSeries(t *testing.T) {
	// Two shards emit the same registry alternately; samples must still be
	// contiguous per metric name in the output.
	p := NewProm()
	for _, topo := range []string{"a", "b"} {
		p.Gauge("m_one", map[string]string{"topo": topo}, 1)
		p.Gauge("m_two", map[string]string{"topo": topo}, 2)
	}
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("interleaved series render invalid: %v\n%s", err, buf.String())
	}
	want := "# TYPE m_one gauge\n" +
		"m_one{topo=\"a\"} 1\n" +
		"m_one{topo=\"b\"} 1\n" +
		"# TYPE m_two gauge\n" +
		"m_two{topo=\"a\"} 2\n" +
		"m_two{topo=\"b\"} 2\n"
	if buf.String() != want {
		t.Fatalf("got:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestPromMetricNameSanitized(t *testing.T) {
	p := NewProm()
	p.Gauge("9weird-name.with/chars", nil, 1)
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("sanitized name invalid: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "_9weird_name_with_chars 1\n") {
		t.Fatalf("unexpected sanitization:\n%s", buf.String())
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	cases := []struct {
		name string
		in   string
		frag string
	}{
		{"empty", "", "empty payload"},
		{"no trailing newline", "a 1", "end with a newline"},
		{"blank line", "a 1\n\nb 2\n", "blank line"},
		{"malformed sample", "a =oops\n", "malformed sample"},
		{"bad metric name", "9a 1\n", "malformed sample"},
		{"bad value", "a one\n", "malformed sample"},
		{"unescaped quote", "a{l=\"x\"y\"} 1\n", "malformed sample"},
		{"malformed comment", "# nonsense\n", "malformed comment"},
		{"duplicate TYPE", "# TYPE a gauge\n# TYPE a gauge\na 1\n", "duplicate TYPE"},
		{"TYPE after samples", "a 1\n# TYPE a gauge\n", "after its samples"},
		{"split series", "a 1\nb 1\na{l=\"2\"} 2\n", "not contiguous"},
		{"duplicate sample", "a{l=\"x\"} 1\na{l=\"x\"} 2\n", "duplicate sample"},
	}
	for _, tc := range cases {
		err := ValidateExposition([]byte(tc.in))
		if err == nil {
			t.Fatalf("%s: accepted %q", tc.name, tc.in)
		}
		if !strings.Contains(err.Error(), tc.frag) {
			t.Fatalf("%s: error %q missing %q", tc.name, err, tc.frag)
		}
	}
}

func TestValidateExpositionAccepts(t *testing.T) {
	good := "# HELP a helper text\n" +
		"# TYPE a gauge\n" +
		"a 1\n" +
		"a{l=\"x\"} 2.5e-3\n" +
		"b{q=\"0.99\",r=\"esc\\\"aped\"} NaN\n" +
		"c +Inf 1712000000\n"
	if err := ValidateExposition([]byte(good)); err != nil {
		t.Fatalf("rejected valid exposition: %v", err)
	}
}

func TestTracerConcurrentRecordAndScrape(t *testing.T) {
	tr := NewTracer(16, time.Nanosecond, slog.New(slog.NewTextHandler(new(bytes.Buffer), nil)))
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for e := uint64(0); ctx.Err() == nil; e++ {
				tr.Record(&EpochTrace{Epoch: e, TotalMs: float64(e % 7)})
				tr.SetProgress(&SolveProgress{Epoch: e, Round: int(e)})
				tr.ClearProgress(e)
			}
		}(w)
	}
	for ctx.Err() == nil {
		_ = tr.Traces(0)
		_ = tr.Progress()
	}
	wg.Wait()
}
