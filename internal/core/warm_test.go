package core

import (
	"context"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"sparseroute/internal/demand"
	"sparseroute/internal/flow"
	"sparseroute/internal/graph/gen"
	"sparseroute/internal/oblivious"
)

// warmSystem samples a small grid path system with a random demand on it.
func warmSystem(t *testing.T) (*PathSystem, *demand.Demand) {
	t.Helper()
	g := gen.Grid(4, 4)
	router, err := oblivious.Build("raecke", g, &oblivious.BuildOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := RSample(router, AllPairs(g.NumVertices()), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(7, 7))
	d := demand.New()
	n := g.NumVertices()
	for k := 0; k < n; k++ {
		u, v := rng.IntN(n), rng.IntN(n)
		if u == v {
			continue
		}
		d.Set(u, v, 0.5+rng.Float64())
	}
	return ps, d
}

func TestCandidateWeightsProjectsRouting(t *testing.T) {
	ps, d := warmSystem(t)
	r, err := ps.Adapt(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := CandidateWeights(r)
	if len(w) != len(r) {
		t.Fatalf("projected %d pairs, routing has %d", len(w), len(r))
	}
	for p, wps := range r {
		var want float64
		for _, wp := range wps {
			if wp.Weight > 0 {
				want += wp.Weight
			}
		}
		var got float64
		for _, amt := range w[p] {
			got += amt
		}
		if diff := got - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("pair %v: projected mass %v, routed mass %v", p, got, want)
		}
	}
}

func TestCandidateWeightsDropsZeroWeight(t *testing.T) {
	r := flow.New()
	ps, d := warmSystem(t)
	p := d.Support()[0]
	paths := ps.Unique(p.U, p.V)
	r[p] = []flow.WeightedPath{{Path: paths[0], Weight: 0}}
	if w := CandidateWeights(r); len(w) != 0 {
		t.Fatalf("zero-weight-only pair should project away, got %v", w)
	}
}

// TestAdaptDeltaMatchesFullSolve: one delta step whose touched pairs keep
// their amounts must reproduce the previous routing's quality, and a real
// change must still route the full matrix exactly.
func TestAdaptDeltaMatchesFullSolve(t *testing.T) {
	ps, d := warmSystem(t)
	ctx := context.Background()
	prev, err := ps.AdaptCtx(ctx, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Nudge two pairs by +3% and re-solve only them.
	support := d.Support()
	touched := []demand.Pair{support[0], support[1]}
	d2 := d.Clone()
	for _, p := range touched {
		d2.Set(p.U, p.V, d.Get(p.U, p.V)*1.03)
	}
	res, err := ps.AdaptDeltaCtx(ctx, prev, nil, d2, touched, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Routing.ValidateRoutes(ps.Graph(), d2, 1e-6); err != nil {
		t.Fatalf("merged delta routing does not route the patched matrix: %v", err)
	}
	full, err := ps.AdaptCtx(ctx, d2, nil)
	if err != nil {
		t.Fatal(err)
	}
	fc := full.MaxCongestion(ps.Graph())
	if res.Congestion > fc*1.05 {
		t.Fatalf("delta congestion %v vs full %v: one gentle step should stay within 5%%", res.Congestion, fc)
	}
	// The incremental edge loads must agree with a from-scratch walk.
	loads := res.Routing.EdgeLoads(ps.Graph())
	for id, l := range loads {
		if diff := res.EdgeLoads[id] - l; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("edge %d: incremental load %v, recomputed %v", id, res.EdgeLoads[id], l)
		}
	}
}

// TestAdaptDeltaRejectsMismatchedPrev: when an untouched pair's flow no
// longer matches the matrix, the delta step must refuse (the caller falls
// back to a full solve) instead of merging a routing that does not route d.
func TestAdaptDeltaRejectsMismatchedPrev(t *testing.T) {
	ps, d := warmSystem(t)
	ctx := context.Background()
	prev, err := ps.AdaptCtx(ctx, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	support := d.Support()
	touched := []demand.Pair{support[0]}
	d2 := d.Clone()
	d2.Set(support[0].U, support[0].V, d.Get(support[0].U, support[0].V)*1.1)
	// Also silently change an untouched pair: prev no longer routes it.
	d2.Set(support[1].U, support[1].V, d.Get(support[1].U, support[1].V)*2)
	_, err = ps.AdaptDeltaCtx(ctx, prev, nil, d2, touched, nil)
	if err == nil || !strings.Contains(err.Error(), "untouched pair") {
		t.Fatalf("want untouched-pair mismatch error, got %v", err)
	}
}

// TestAdaptDeltaRejectsOrphanFlow: an untouched pair with flow in prev but
// no demand in d is the same contract violation from the other side.
func TestAdaptDeltaRejectsOrphanFlow(t *testing.T) {
	ps, d := warmSystem(t)
	ctx := context.Background()
	prev, err := ps.AdaptCtx(ctx, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	support := d.Support()
	touched := []demand.Pair{support[0]}
	d2 := d.Clone()
	d2.Set(support[1].U, support[1].V, 0) // untouched pair vanished from d
	_, err = ps.AdaptDeltaCtx(ctx, prev, nil, d2, touched, nil)
	if err == nil || !strings.Contains(err.Error(), "no demand") {
		t.Fatalf("want orphan-flow error, got %v", err)
	}
}

// TestAdaptDeltaClearsPair: clearing a touched pair's demand removes its
// flow from the merged routing and its load from the background.
func TestAdaptDeltaClearsPair(t *testing.T) {
	ps, d := warmSystem(t)
	ctx := context.Background()
	prev, err := ps.AdaptCtx(ctx, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	support := d.Support()
	gone := support[0]
	d2 := d.Clone()
	d2.Set(gone.U, gone.V, 0)
	res, err := ps.AdaptDeltaCtx(ctx, prev, nil, d2, []demand.Pair{gone}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Routing[gone]; ok {
		t.Fatalf("cleared pair %v still present in merged routing", gone)
	}
	if err := res.Routing.ValidateRoutes(ps.Graph(), d2, 1e-6); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptDeltaSolverTag: the delta step reports itself through OnSolver as
// "delta-mwu" so traces can distinguish it from full solves.
func TestAdaptDeltaSolverTag(t *testing.T) {
	ps, d := warmSystem(t)
	ctx := context.Background()
	prev, err := ps.AdaptCtx(ctx, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	support := d.Support()
	touched := []demand.Pair{support[0]}
	d2 := d.Clone()
	d2.Set(support[0].U, support[0].V, d.Get(support[0].U, support[0].V)*1.02)
	var tags []string
	opt := &AdaptOptions{OnSolver: func(s string) { tags = append(tags, s) }}
	if _, err := ps.AdaptDeltaCtx(ctx, prev, nil, d2, touched, opt); err != nil {
		t.Fatal(err)
	}
	if len(tags) != 1 || tags[0] != "delta-mwu" {
		t.Fatalf("solver tags %v, want [delta-mwu]", tags)
	}
}

// TestAdaptDeltaIgnoresTouchedOrder: the background subtracts the touched
// pairs' old flow, and on an edge both pairs cross the rounding depends on
// the order of the subtractions. The delta step must give bitwise-equal
// loads, congestion and routing whichever order the caller lists them in.
func TestAdaptDeltaIgnoresTouchedOrder(t *testing.T) {
	g := gen.Grid(8, 8)
	router, err := oblivious.Build("raecke", g, &oblivious.BuildOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := RSample(router, AllPairs(g.NumVertices()), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := demand.Gravity(g, float64(g.NumEdges()), 256, rand.New(rand.NewPCG(3, 4)))
	ctx := context.Background()
	prev, err := ps.AdaptCtx(ctx, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	loads := prev.EdgeLoads(g)
	subtract := func(pairs ...demand.Pair) []float64 {
		bg := slices.Clone(loads)
		for _, p := range pairs {
			for _, wp := range prev[p] {
				for _, id := range wp.Path.EdgeIDs {
					bg[id] -= wp.Weight
				}
			}
		}
		for id := range bg {
			bg[id] = max(bg[id], 0)
		}
		return bg
	}
	// Pairs whose old flow rounds differently by subtraction order, so the
	// test fails if the delta step subtracts in the caller's order.
	support := d.Support()
	var sensitive [][2]demand.Pair
	for i := 0; i < len(support) && len(sensitive) < 32; i++ {
		for j := i + 1; j < len(support) && len(sensitive) < 32; j++ {
			a, b := support[i], support[j]
			if !slices.Equal(subtract(a, b), subtract(b, a)) {
				sensitive = append(sensitive, [2]demand.Pair{a, b})
			}
		}
	}
	if len(sensitive) == 0 {
		t.Fatal("no two pairs whose subtraction order changes the background")
	}
	for _, pq := range sensitive {
		a, b := pq[0], pq[1]
		next := d.Clone()
		next.Set(a.U, a.V, d.Get(a.U, a.V)*1.1)
		next.Set(b.U, b.V, d.Get(b.U, b.V)*0.9)
		ab, err := ps.AdaptDeltaCtx(ctx, prev, loads, next, []demand.Pair{a, b}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ba, err := ps.AdaptDeltaCtx(ctx, prev, loads, next, []demand.Pair{b, a}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for id := range ab.EdgeLoads {
			if math.Float64bits(ab.EdgeLoads[id]) != math.Float64bits(ba.EdgeLoads[id]) {
				t.Fatalf("edge %d: load %v with touched (%v, %v), %v reversed", id, ab.EdgeLoads[id], a, b, ba.EdgeLoads[id])
			}
		}
		if math.Float64bits(ab.Congestion) != math.Float64bits(ba.Congestion) {
			t.Fatalf("congestion %v with touched (%v, %v), %v reversed", ab.Congestion, a, b, ba.Congestion)
		}
		for _, p := range []demand.Pair{a, b} {
			x, y := ab.Routing[p], ba.Routing[p]
			if len(x) != len(y) {
				t.Fatalf("pair %v: %d paths, %d reversed", p, len(x), len(y))
			}
			for k := range x {
				if x[k].Path.Key() != y[k].Path.Key() || math.Float64bits(x[k].Weight) != math.Float64bits(y[k].Weight) {
					t.Fatalf("pair %v path %d differs by touched order", p, k)
				}
			}
		}
	}
}
