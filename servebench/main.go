// Command servebench is the repository's serving benchmark. For one
// workload it starts the routed daemon built from this tree on loopback
// with the WAL on, drives it from one closed-loop controller connection and
// one open-loop reader connection, checks the routings it serves, and
// prints every metric by name and unit. The last line of standard output is
// one JSON object: {"correct","attempted","failed","metrics"}.
//
// With -trace 0 the metrics are the end-to-end ones. With -trace 1 the run
// makes three passes over the same request list: an untraced daemon pass, a
// traced daemon pass that joins each reply with its /debug/trace record,
// and an in-process replay that times each module's public functions; the
// metrics are then the per-layer ones plus the tracing overhead.
//
// Run it through run.sh, which builds both binaries first:
//
//	bash servebench/run.sh --workload cube7-mwu --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"sparseroute/internal/obs"
	"sparseroute/internal/serial"
	"sparseroute/internal/stats"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workloadName := flag.String("workload", "", "workload: grid8-lp, cube7-mwu or cube7-churn")
	seed := flag.Uint64("seed", 1, "workload seed; the request list is a pure function of (workload, seed)")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced passes and reports per-layer metrics")
	routed := flag.String("routed", "", "routed binary to benchmark")
	work := flag.String("dir", ".bench_build", "directory for run files, removed per run")
	flag.Parse()
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	w, err := findWorkload(*workloadName)
	if err == nil && *routed == "" {
		err = errors.New("-routed is required")
	}
	if err == nil && (*seconds < 1 || *trace < 0 || *trace > 1) {
		err = errors.New("-seconds must be positive and -trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, w, *routed, *work, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func run(ctx context.Context, w workload, routed, work string, seed uint64, seconds time.Duration, traced bool) (*result, error) {
	g, err := topology(w.Topology)
	if err != nil {
		return nil, err
	}
	dir, err := filepath.Abs(filepath.Join(work, "runs", fmt.Sprintf("%s-%d-%d", w.Name, seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	topo := filepath.Join(dir, "topo.json")
	f, err := os.Create(topo)
	if err != nil {
		return nil, err
	}
	if err := serial.EncodeGraph(f, g); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	cfg := runConfig{routed: routed, dir: dir, w: w, g: g, topo: topo, seed: seed}
	printHost(w, dir, seed)

	if !traced {
		p, err := runPass(ctx, cfg, "daemon", false, seconds, setupRuns)
		if err != nil {
			return nil, err
		}
		res := endToEnd(w, p)
		if res.Correct {
			if err := checkRepeat(work, routed, w, seed, p.congs[:congestionPrefix]); err != nil {
				fmt.Fprintln(os.Stderr, "servebench:", err)
				res.Correct = false
			}
		}
		return res, nil
	}

	// The traced run splits its time between its three passes, so it lasts
	// about as long as an untraced one.
	third := seconds / 3
	plain, err := runPass(ctx, cfg, "plain", false, third, 1)
	if err != nil {
		return nil, err
	}
	tracedPass, err := runPass(ctx, cfg, "traced", true, third, 1)
	if err != nil {
		return nil, err
	}
	rep, err := replay(ctx, cfg, tracedPass.ops, third)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	res := perLayer(w, plain, tracedPass, rep)
	n := min(len(plain.congs), len(tracedPass.congs))
	if err := sameCongestion(plain.congs[:n], tracedPass.congs[:n]); err != nil {
		fmt.Fprintln(os.Stderr, "servebench: traced pass:", err)
		res.Correct = false
	}
	if rep.hash != plain.hash {
		fmt.Fprintf(os.Stderr, "servebench: replay path-system hash %s, daemon %s\n", rep.hash, plain.hash)
		res.Correct = false
	}
	return res, nil
}

// validity folds a pass's correctness checks into one verdict, printing
// each failure.
func validity(p *passResult) bool {
	ok := true
	if p.checkErr != nil {
		fmt.Fprintln(os.Stderr, "servebench:", p.checkErr)
		ok = false
	}
	for _, a := range []accounting{p.ctl, p.reads} {
		if err := a.verify(); err != nil {
			fmt.Fprintln(os.Stderr, "servebench:", err)
			ok = false
		}
	}
	// A failed mutation or link event leaves the daemon's state off the
	// request list, so the pass stops there and the run is invalid however
	// few ops failed.
	if n := p.ctl.failed(); n > 0 {
		fmt.Fprintf(os.Stderr, "servebench: invalid run: %d controller op(s) failed (%v)\n", n, p.ctl)
		ok = false
	}
	if lag := percentile(p.readLagMs, 99); lag > maxReadLagMs {
		fmt.Fprintf(os.Stderr, "servebench: invalid run: reader ran %.1f ms behind schedule at p99 (limit %d ms)\n", lag, maxReadLagMs)
		ok = false
	}
	if len(p.congs) < congestionPrefix {
		fmt.Fprintf(os.Stderr, "servebench: only %d of the %d mutations congestion_mean needs were solved\n", len(p.congs), congestionPrefix)
		ok = false
	}
	return ok
}

func endToEnd(w workload, p *passResult) *result {
	acct := p.total()
	res := &result{
		Correct:   validity(p),
		Attempted: acct.Sent,
		Failed:    acct.failed(),
		Metrics:   map[string]metric{},
	}
	add := func(name string, v float64, unit, note string) {
		res.Metrics[name] = metric{v, unit}
		fmt.Printf("%-12s %-20s %14.6f %-8s %s\n", w.Name, name, v, unit, note)
	}
	mut := "POST /v1/demand?wait=1"
	if w.Patch {
		mut = "PATCH /v1/demand?wait=1"
	}
	rtts := p.mutationRTTs()
	add("setup_s", percentile(p.setups, 50), "s", fmt.Sprintf("median of %d daemon starts, exec to first /healthz 200", len(p.setups)))
	add("mutation_p50_ms", percentile(rtts, 50), "ms", fmt.Sprintf("%s round trip, n=%d", mut, len(rtts)))
	add("mutation_p90_ms", percentile(rtts, 90), "ms", fmt.Sprintf("%s round trip, n=%d", mut, len(rtts)))
	add("read_p50_ms", percentile(p.readsMs, 50), "ms", fmt.Sprintf("GET /v1/routing from due time, n=%d", len(p.readsMs)))
	var cm float64
	if len(p.congs) >= congestionPrefix {
		cm = stats.Mean(p.congs[:congestionPrefix])
	}
	add("congestion_mean", cm, "ratio", fmt.Sprintf("mean reply congestion of the first %d mutations", congestionPrefix))
	add("success_rate", 1-acct.errorRate(), "fraction", fmt.Sprintf("1 - error_rate; error_rate=%g, %v", acct.errorRate(), acct))
	add("peak_rss_mb", p.rssMB, "MiB", "daemon VmHWM at the end of the run")
	add("cpu_ms_per_mutation", p.cpuPerMutation(), "ms", fmt.Sprintf("daemon utime+stime over the measured phase, link events excluded / %d mutations", len(p.muts)))
	// The read tail and the failover round trip spread too widely from seed
	// to seed to carry a bound (a failure's cost depends on which edge it
	// hits); they are printed here and reported per layer by the traced run.
	fmt.Printf("%-12s read_p99_ms %.6f ms, n=%d (unbounded)\n", w.Name, percentile(p.readsMs, 99), len(p.readsMs))
	if len(p.failMs) > 0 {
		fmt.Printf("%-12s link_p50_ms %.6f ms, POST /v1/links fail round trip, n=%d; restore p50 %.6f ms, n=%d (unbounded)\n",
			w.Name, percentile(p.failMs, 50), len(p.failMs), percentile(p.restoreMs, 50), len(p.restoreMs))
	}
	fmt.Printf("%-12s output checks passed: %d, reader lag p99 %.3f ms\n", w.Name, p.checks, percentile(p.readLagMs, 99))
	return res
}

func perLayer(w workload, plain, traced *passResult, rep *replayResult) *result {
	ok := validity(plain) && validity(traced)
	var acct accounting
	acct.merge(plain.total())
	acct.merge(traced.total())
	res := &result{Correct: ok, Attempted: acct.Sent, Failed: acct.failed(), Metrics: map[string]metric{}}
	add := func(name string, v float64, unit, note string) {
		res.Metrics[name] = metric{v, unit}
		fmt.Printf("%-12s %-34s %14.6f %-6s %s\n", w.Name, name, v, unit, note)
	}
	var queue, publish, frontSelf []float64
	cold, patches := 0, 0
	for _, m := range traced.muts {
		queue = append(queue, m.trace.QueueWaitMs)
		publish = append(publish, m.trace.PublishMs)
		frontSelf = append(frontSelf, m.rttMs-(m.trace.QueueWaitMs+m.trace.TotalMs))
		if w.Patch {
			patches++
			if m.warm == obs.WarmCold {
				cold++
			}
		}
	}
	n := func(xs []float64) string { return fmt.Sprintf("n=%d", len(xs)) }
	add("oblivious.build_ms", percentile(rep.buildMs, 50), "ms", "oblivious.Build raecke, median "+n(rep.buildMs))
	add("core.rsample_ms", percentile(rep.rsampleMs, 50), "ms", "core.RSample all pairs R=4, median "+n(rep.rsampleMs))
	add("serial.hash_ms", percentile(rep.hashMs, 50), "ms", "serial.PathSystemHash, median "+n(rep.hashMs))
	add("serial.decode_demand_p50_us", percentile(rep.decodeUs, 50), "us", "mutation body decode, "+n(rep.decodeUs))
	add("wal.append_p50_us", percentile(rep.walAppendUs, 50), "us", "wal.Log.Append of the body, "+n(rep.walAppendUs))
	add("wal.sync_p50_us", percentile(rep.walSyncUs, 50), "us", "wal.Log.Sync, "+n(rep.walSyncUs))
	add("wal.sync_p99_us", percentile(rep.walSyncUs, 99), "us", "wal.Log.Sync, "+n(rep.walSyncUs))
	add("service.front_self_p50_ms", percentile(frontSelf, 50), "ms", "client latency - (queue_wait + total), "+n(frontSelf))
	add("service.queue_wait_p50_ms", percentile(queue, 50), "ms", "/debug/trace queue_wait_ms, "+n(queue))
	add("service.queue_wait_p99_ms", percentile(queue, 99), "ms", "/debug/trace queue_wait_ms, "+n(queue))
	add("service.publish_p50_ms", percentile(publish, 50), "ms", "/debug/trace publish_ms, "+n(publish))
	add("flow.edge_loads_p50_us", percentile(rep.edgeLoadsUs, 50), "us", "Routing.MaxCongestion (edge loads), "+n(rep.edgeLoadsUs))
	add("core.adapt_p50_ms", percentile(rep.adaptMs, 50), "ms", "PathSystem.AdaptCtx default options, "+n(rep.adaptMs))
	add("core.adapt_p90_ms", percentile(rep.adaptMs, 90), "ms", "PathSystem.AdaptCtx default options, "+n(rep.adaptMs))
	add("lp.solve_p50_ms", percentile(rep.lpMs, 50), "ms", "exact LP share of AdaptCtx, "+n(rep.lpMs))
	add("lp.solve_p90_ms", percentile(rep.lpMs, 90), "ms", "exact LP share of AdaptCtx, "+n(rep.lpMs))
	add("lp.calls", float64(rep.lpCalls), "count", "AdaptCtx calls dispatched to the exact LP")
	var fall float64
	if rep.lpCalls > 0 {
		fall = float64(rep.lpFallthroughs) / float64(rep.lpCalls)
	}
	add("lp.fallthrough_frac", fall, "fraction", fmt.Sprintf("LP attempts that ended in MWU, %d of %d", rep.lpFallthroughs, rep.lpCalls))
	add("mcf.mwu_p50_ms", percentile(rep.mwuMs, 50), "ms", "MWU share of AdaptCtx, "+n(rep.mwuMs))
	add("mcf.mwu_p90_ms", percentile(rep.mwuMs, 90), "ms", "MWU share of AdaptCtx, "+n(rep.mwuMs))
	add("mcf.mwu_rounds_mean", stats.Mean(rep.mwuRounds), "count", "MWU rounds per solve, "+n(rep.mwuRounds))
	add("mcf.mwu_allocs_per_solve", stats.Mean(rep.mwuAllocs), "count", "heap allocations per MWU-only solve, "+n(rep.mwuAllocs))
	add("mcf.mwu_kb_per_solve", stats.Mean(rep.mwuKB), "KiB", "heap KiB allocated per MWU-only solve, "+n(rep.mwuKB))
	add("core.delta_p50_ms", percentile(rep.deltaMs, 50), "ms", "delta attempt of Engine.PatchDemandCtx, "+n(rep.deltaMs))
	var coldFrac float64
	if patches > 0 {
		coldFrac = float64(cold) / float64(patches)
	}
	add("core.cold_patch_frac", coldFrac, "fraction", fmt.Sprintf("PATCH replies tagged warm:cold, %d of %d", cold, patches))
	add("service.link_event_p50_ms", percentile(rep.linkMs, 50), "ms", "Engine.FailEdges/RestoreEdges, "+n(rep.linkMs))
	add("serial.routing_json_p50_ms", percentile(rep.routingJSONMs, 50), "ms", "RoutingToJSON + json.Marshal, "+n(rep.routingJSONMs))
	add("load.link_fail_p50_ms", percentile(plain.failMs, 50), "ms", "POST /v1/links fail round trip, untraced pass, "+n(plain.failMs))
	add("load.read_p99_ms", percentile(plain.readsMs, 99), "ms", "GET /v1/routing from due time, untraced pass, "+n(plain.readsMs))
	add("load.read_lag_p99_ms", percentile(plain.readLagMs, 99), "ms", "reader lateness against its schedule (diagnostic)")
	add("trace.overhead_mutation_p50_ms", percentile(traced.mutationRTTs(), 50)-percentile(plain.mutationRTTs(), 50), "ms", "traced minus untraced mutation p50")
	add("trace.overhead_read_p50_ms", percentile(traced.readsMs, 50)-percentile(plain.readsMs, 50), "ms", "traced minus untraced read p50")
	return res
}

// printHost records the facts that shape the numbers.
func printHost(w workload, dir string, seed uint64) {
	fmt.Printf("servebench %s seed=%d topology=%s pairs=%d patch=%v link_every=%d R=4 read_rate=%d/s\n",
		w.Name, seed, w.Topology, w.Pairs, w.Patch, w.LinkEvery, int(time.Second/readInterval))
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d %s loopback 127.0.0.1 wal_fs=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), fsType(dir))
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext2/3/4", 0x01021994: "tmpfs", 0x9123683E: "btrfs",
		0x58465342: "xfs", 0x794C7630: "overlayfs", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// checkRepeat asserts that congestion repeats across runs of one routed
// binary: the first run of (workload, seed) records its congestion prefix
// next to the build, keyed by both binaries, and later runs must match it.
func checkRepeat(work, routed string, w workload, seed uint64, congs []float64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	h := sha256.New()
	for _, bin := range []string{routed, self} {
		f, err := os.Open(bin)
		if err != nil {
			return err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return err
		}
	}
	dir := filepath.Join(work, "congestion")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d-%s.json", w.Name, seed, hex.EncodeToString(h.Sum(nil))[:16]))
	prev, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		b, err := json.Marshal(congs)
		if err != nil {
			return err
		}
		return os.WriteFile(path, b, 0o644)
	}
	if err != nil {
		return err
	}
	var want []float64
	if err := json.Unmarshal(prev, &want); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(want) != len(congs) {
		return fmt.Errorf("%s holds %d values, want %d", path, len(want), len(congs))
	}
	if err := sameCongestion(want, congs); err != nil {
		return fmt.Errorf("against an earlier run of the same binary: %w", err)
	}
	return nil
}

// congestionRepeatTol is the relative difference two runs' reply congestions
// may show. The solves repeat exactly, but the daemon sums edge loads over a
// Go map, whose order changes from process to process, so the last bits of
// a congestion value do too (measured: at most 6e-16 relative).
const congestionRepeatTol = 1e-12

// sameCongestion checks that two runs of one request list saw the same
// congestion for every mutation, and prints how many differ in any bit.
func sameCongestion(a, b []float64) error {
	bits := 0
	for i := range a {
		if a[i] == b[i] {
			continue
		}
		bits++
		if math.Abs(a[i]-b[i]) > congestionRepeatTol*math.Abs(a[i]) {
			return fmt.Errorf("congestion of mutation %d is %v, earlier %v", i, b[i], a[i])
		}
	}
	fmt.Printf("congestion repeat: %d mutations agree, %d of them only to %g relative\n", len(a), bits, congestionRepeatTol)
	return nil
}
