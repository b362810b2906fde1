package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sparseroute/internal/core"
	"sparseroute/internal/demand"
	"sparseroute/internal/flow"
	"sparseroute/internal/mcf"
	"sparseroute/internal/oblivious"
	"sparseroute/internal/serial"
	"sparseroute/internal/service"
	"sparseroute/internal/wal"
)

// setupReps is how many times the replay builds the path system to time
// its set-up layers.
const setupReps = 3

// replayResult holds per-layer samples from running a pass's request list
// single-threaded through each module's public functions.
type replayResult struct {
	hash                       string
	buildMs, rsampleMs, hashMs []float64
	decodeUs                   []float64
	walAppendUs, walSyncUs     []float64
	adaptMs, lpMs, mwuMs       []float64
	lpCalls, lpFallthroughs    int
	mwuRounds                  []float64
	mwuAllocs, mwuKB           []float64
	deltaMs                    []float64
	linkMs                     []float64
	edgeLoadsUs                []float64
	routingJSONMs              []float64
}

// replay runs ops (as a daemon pass sent them) in-process with the daemon's
// configuration — raecke, R=4, seed 1, two workers, the WAL on — and times
// each layer from outside its public entry point. It stops early once
// budget has elapsed.
func replay(ctx context.Context, cfg runConfig, ops []op, budget time.Duration) (*replayResult, error) {
	dir := filepath.Join(cfg.dir, "replay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	res := &replayResult{}
	var router oblivious.Router
	var ps *core.PathSystem
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		r, err := oblivious.Build("raecke", cfg.g, &oblivious.BuildOptions{Trees: 12, K: 4, Seed: 1})
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		s, err := core.RSample(r, core.AllPairs(cfg.g.NumVertices()), 4, 1)
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		h := serial.PathSystemHash(s)
		t3 := time.Now()
		res.buildMs = append(res.buildMs, ms(t1.Sub(t0)))
		res.rsampleMs = append(res.rsampleMs, ms(t2.Sub(t1)))
		res.hashMs = append(res.hashMs, ms(t3.Sub(t2)))
		router, ps, res.hash = r, s, fmt.Sprintf("%016x", h)
	}

	layerLog, _, err := wal.Open(filepath.Join(dir, "layer.wal"), nil)
	if err != nil {
		return nil, err
	}
	defer layerLog.Close()
	engineLog, rec, err := wal.Open(filepath.Join(dir, "s.snap.wal"), nil)
	if err != nil {
		return nil, err
	}
	defer engineLog.Close()
	eng, err := service.New(service.Config{
		Graph: cfg.g, Router: router, RouterName: "raecke", System: ps,
		R: 4, Seed: 1, Workers: 2, QueueDepth: 16,
		WAL: engineLog, CheckpointPath: filepath.Join(dir, "s.snap"),
	})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	if _, err := eng.ReplayWAL(rec); err != nil {
		return nil, err
	}

	var epoch uint64 // the engine's last epoch
	waitEpoch := func(e uint64) error {
		out, err := eng.Wait(ctx, e)
		if err != nil {
			return err
		}
		if !out.OK {
			return fmt.Errorf("replay epoch %d: %s", e, out.Err)
		}
		epoch = e
		return nil
	}
	submit := func(d *demand.Demand) error {
		e, err := eng.SubmitDemandCtx(ctx, d)
		if err != nil {
			return err
		}
		return waitEpoch(e)
	}
	start := time.Now()
	for _, o := range ops {
		if time.Since(start) > budget || ctx.Err() != nil {
			break
		}
		var d *demand.Demand
		if o.mutation() {
			if d, err = res.frontDoor(layerLog, o); err != nil {
				return nil, err
			}
		}
		switch o.Kind {
		case opPost:
			r, err := res.adapt(ctx, eng.System(), d)
			if err != nil {
				return nil, err
			}
			if err := res.output(cfg, r); err != nil {
				return nil, err
			}
			if cfg.w.Patch {
				// The base matrix PATCH deltas apply to.
				if err := submit(d); err != nil {
					return nil, err
				}
			}
		case opPatch:
			set := make([]service.PairAmount, len(o.Set))
			for i, e := range o.Set {
				set[i] = service.PairAmount{U: e.U, V: e.V, Amount: e.Amount}
			}
			e, err := eng.PatchDemandCtx(ctx, set, nil)
			if err != nil {
				return nil, err
			}
			if err := waitEpoch(e); err != nil {
				return nil, err
			}
			for _, tr := range eng.Tracer().Traces(4) {
				if tr.Epoch != e {
					continue
				}
				for _, a := range tr.Attempts {
					if a.Stage == "delta" && a.OK {
						res.deltaMs = append(res.deltaMs, a.Ms)
					}
				}
			}
			if err := res.output(cfg, eng.Active().Routing); err != nil {
				return nil, err
			}
		case opFail, opRestore:
			// The engine serves the patched matrix the daemon serves, so
			// the event re-serves the same demand.
			t0 := time.Now()
			if o.Kind == opFail {
				_, err = eng.FailEdges(o.Edge)
			} else {
				_, err = eng.RestoreEdges(o.Edge)
			}
			res.linkMs = append(res.linkMs, msSince(t0))
			if err != nil {
				return nil, err
			}
			// Interim publish, then the re-adapt.
			if err := waitEpoch(epoch + 2); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// frontDoor times what the daemon does with a mutation body before it
// queues the epoch: decode it, then append and fsync it to the WAL. It
// returns the decoded matrix of a POST.
func (res *replayResult) frontDoor(log *wal.Log, o op) (*demand.Demand, error) {
	t0 := time.Now()
	var d *demand.Demand
	var err error
	if o.Kind == opPost {
		d, err = serial.DecodeDemand(bytes.NewReader(o.Body))
	} else {
		var patch struct {
			Set []serial.DemandEntryJSON `json:"set"`
		}
		err = json.Unmarshal(o.Body, &patch)
	}
	res.decodeUs = append(res.decodeUs, us(time.Since(t0)))
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	if err := log.Append(o.Body); err != nil {
		return nil, err
	}
	t2 := time.Now()
	if err := log.Sync(); err != nil {
		return nil, err
	}
	res.walAppendUs = append(res.walAppendUs, us(t2.Sub(t1)))
	res.walSyncUs = append(res.walSyncUs, us(time.Since(t2)))
	return d, nil
}

// adapt runs one full adaptation with default options, splitting its time
// between the exact LP and MWU at the OnSolver seam. Allocation counts are
// taken outside the timed call and only for MWU-only solves, where they
// belong to MWU alone.
func (res *replayResult) adapt(ctx context.Context, ps *core.PathSystem, d *demand.Demand) (flow.Routing, error) {
	var exactAt, mwuAt time.Time
	rounds := 0
	opts := &core.AdaptOptions{
		OnSolver: func(s string) {
			if s == "exact" {
				exactAt = time.Now()
			} else {
				mwuAt = time.Now()
			}
		},
		MWU: mcf.Options{Progress: func(round int, _ float64) { rounds = round }},
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	r, err := ps.AdaptCtx(ctx, d, opts)
	end := time.Now()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	res.adaptMs = append(res.adaptMs, ms(end.Sub(t0)))
	if !exactAt.IsZero() {
		res.lpCalls++
		lpEnd := end
		if !mwuAt.IsZero() {
			res.lpFallthroughs++
			lpEnd = mwuAt
		}
		res.lpMs = append(res.lpMs, ms(lpEnd.Sub(exactAt)))
	}
	if !mwuAt.IsZero() {
		res.mwuMs = append(res.mwuMs, ms(end.Sub(mwuAt)))
		res.mwuRounds = append(res.mwuRounds, float64(rounds))
		if exactAt.IsZero() {
			res.mwuAllocs = append(res.mwuAllocs, float64(m1.Mallocs-m0.Mallocs))
			res.mwuKB = append(res.mwuKB, float64(m1.TotalAlloc-m0.TotalAlloc)/1024)
		}
	}
	return r, nil
}

// output times what publishing and reading a routing cost: edge loads with
// the max congestion, and the JSON a GET /v1/routing encodes.
func (res *replayResult) output(cfg runConfig, r flow.Routing) error {
	t0 := time.Now()
	r.MaxCongestion(cfg.g)
	res.edgeLoadsUs = append(res.edgeLoadsUs, us(time.Since(t0)))
	t1 := time.Now()
	if _, err := json.Marshal(serial.RoutingToJSON(cfg.g, r)); err != nil {
		return fmt.Errorf("encoding routing: %w", err)
	}
	res.routingJSONMs = append(res.routingJSONMs, msSince(t1))
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
