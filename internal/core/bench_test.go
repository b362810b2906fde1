package core

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"

	"sparseroute/internal/demand"
	"sparseroute/internal/graph/gen"
	"sparseroute/internal/mcf"
	"sparseroute/internal/oblivious"
)

func BenchmarkRSampleParallel(b *testing.B) {
	g := gen.Hypercube(6)
	router, err := oblivious.NewValiant(g, 6)
	if err != nil {
		b.Fatal(err)
	}
	pairs := AllPairs(g.NumVertices())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RSample(router, pairs, 4, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAdaptPermutation(b *testing.B) {
	g := gen.Hypercube(6)
	router, err := oblivious.NewValiant(g, 6)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 5))
	d := demand.RandomPermutation(64, 16, rng)
	ps, err := RSample(router, d.Support(), 4, 9)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ps.Adapt(d, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAdaptIntegral(b *testing.B) {
	g := gen.Hypercube(5)
	router, err := oblivious.NewValiant(g, 5)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(6, 6))
	d := demand.RandomPermutation(32, 8, rng)
	ps, err := RSample(router, d.Support(), 4, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ps.AdaptIntegral(d, nil, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// servingInstance is the cube7-mwu serving shape: a Räcke R=4 system on
// hypercube-7 (the daemon's router defaults) and a 256-pair gravity matrix.
func servingInstance(b *testing.B) (*PathSystem, *demand.Demand) {
	b.Helper()
	g := gen.Hypercube(7)
	router, err := oblivious.Build("raecke", g, &oblivious.BuildOptions{Trees: 12, K: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(7, 7))
	d := demand.Gravity(g, float64(g.NumEdges()), 256, rng)
	ps, err := RSample(router, d.Support(), 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	return ps, d
}

// BenchmarkMinCongestionServing is one full-matrix epoch of the MWU path:
// 256 pairs, 256 cold rounds.
func BenchmarkMinCongestionServing(b *testing.B) {
	ps, d := servingInstance(b)
	cand := ps.candidatesFor(d)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mcf.MinCongestionOnPathsCtx(ctx, ps.g, cand, d, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMinCongestionDelta is one PATCH epoch's solve: 2 touched pairs,
// 64 rounds, against the relative background of the other 254.
func BenchmarkMinCongestionDelta(b *testing.B) {
	ps, d := servingInstance(b)
	ctx := context.Background()
	full, err := mcf.MinCongestionOnPathsCtx(ctx, ps.g, ps.candidatesFor(d), d, nil)
	if err != nil {
		b.Fatal(err)
	}
	sup := d.Support()
	touched := map[demand.Pair]bool{sup[5]: true, sup[100]: true}
	dT := d.Restrict(func(p demand.Pair) bool { return touched[p] })
	base := full.EdgeLoads(ps.g)
	for _, p := range dT.Support() {
		for _, wp := range full[p] {
			for _, id := range wp.Path.EdgeIDs {
				base[id] -= wp.Weight
			}
		}
	}
	for id := range base {
		base[id] = math.Max(base[id], 0) / ps.g.Edge(id).Capacity
	}
	cand := ps.candidatesFor(dT)
	opt := &mcf.Options{Iterations: 64, BaseLoads: base}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mcf.MinCongestionOnPathsCtx(ctx, ps.g, cand, dT, opt); err != nil {
			b.Fatal(err)
		}
	}
}
