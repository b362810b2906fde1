package core_test

import (
	"context"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	"sparseroute/internal/core"
	"sparseroute/internal/demand"
	"sparseroute/internal/flow"
	"sparseroute/internal/graph"
	"sparseroute/internal/graph/gen"
	"sparseroute/internal/mcf"
	"sparseroute/internal/oblivious"
	"sparseroute/internal/serial"
	"sparseroute/internal/temodel"
)

// goldenCase pins the bit-exact outputs of the MWU adaptation on one
// serving-shaped instance: a Räcke R=4 system sampled over all pairs with the
// daemon's defaults (12 trees, K=4, seed 1). Any change to the solver's float
// operations or their order moves a digest.
type goldenCase struct {
	topo   string
	g      func() *graph.Graph
	system uint64 // serial.PathSystemHash
	cold   uint64 // 256 rounds, cold, on a 256-pair gravity matrix
	warm   uint64 // 64 rounds seeded from the cold routing, next matrix
	base   uint64 // 64 rounds on 8 pairs with a BaseLoads background
	prog   uint64 // every Progress (round, congestion) of the three solves
	delta  uint64 // AdaptDeltaCtx on one touched pair, then on two
}

var goldenCases = []goldenCase{
	{
		topo: "hypercube-7", g: func() *graph.Graph { return gen.Hypercube(7) },
		system: 0x30da17b0cdd98c9c,
		cold:   0xb59aca682788ec92,
		warm:   0x1fcdefb7feff9402,
		base:   0x8fe7b7714e87bc5d,
		prog:   0x84692ed145916ba3,
		delta:  0xece0e071c6f715c7,
	},
	{
		topo: "grid-8x8", g: func() *graph.Graph { return gen.Grid(8, 8) },
		system: 0x7261dc0650794148,
		cold:   0xc9538d12408ffdaa,
		warm:   0x062a4405dcb70ed7,
		base:   0x66eed32f6cf7e131,
		prog:   0xc2227d62c56a22c4,
		delta:  0xb7a0b968eb76461c,
	},
}

func TestMWUGoldenOutputs(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are pinned on amd64; other ports may fuse multiply-adds or round math.Exp differently")
	}
	ctx := context.Background()
	for _, gc := range goldenCases {
		t.Run(gc.topo, func(t *testing.T) {
			g := gc.g()
			router, err := oblivious.Build("raecke", g, &oblivious.BuildOptions{Trees: 12, K: 4, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			ps, err := core.RSample(router, core.AllPairs(g.NumVertices()), 4, 1)
			if err != nil {
				t.Fatal(err)
			}
			check := func(name string, got, want uint64) {
				t.Helper()
				if got != want {
					t.Errorf("%s digest %#016x, pinned %#016x", name, got, want)
				}
			}
			check("PathSystemHash", serial.PathSystemHash(ps), gc.system)

			rng := rand.New(rand.NewPCG(11, 12))
			seq := temodel.GravitySequence(g, 2, float64(g.NumEdges()), 256, rng)
			prog := fnv.New64a()
			record := func(round int, c float64) {
				writeU64(prog, uint64(round))
				writeU64(prog, math.Float64bits(c))
			}

			cold, err := mcf.MinCongestionOnPathsCtx(ctx, g, candidates(ps, seq[0]), seq[0], &mcf.Options{Progress: record})
			if err != nil {
				t.Fatal(err)
			}
			check("cold", routingDigest(cold), gc.cold)

			warm, err := mcf.MinCongestionOnPathsCtx(ctx, g, candidates(ps, seq[1]), seq[1], &mcf.Options{
				Iterations: 64, Progress: record,
				Warm: &mcf.WarmStart{Weights: core.CandidateWeights(cold)},
			})
			if err != nil {
				t.Fatal(err)
			}
			check("warm", routingDigest(warm), gc.warm)

			loads := sortedLoads(g, cold)
			rel := make([]float64, len(loads))
			for id, l := range loads {
				rel[id] = l / g.Edge(id).Capacity
			}
			few := seq[1].Support()[:8]
			dFew := seq[1].Restrict(func(p demand.Pair) bool { return slices.Contains(few, p) })
			based, err := mcf.MinCongestionOnPathsCtx(ctx, g, candidates(ps, dFew), dFew, &mcf.Options{
				Iterations: 64, Progress: record, BaseLoads: rel,
			})
			if err != nil {
				t.Fatal(err)
			}
			check("base", routingDigest(based), gc.base)
			check("progress", prog.Sum64(), gc.prog)

			// A delta chain as the engine runs it on PATCH: one touched pair,
			// then two, each against the previous step's routing.
			sup := seq[0].Support()
			delta := fnv.New64a()
			prev, cur := cold, seq[0]
			for _, touched := range [][]demand.Pair{{sup[3]}, {sup[17], sup[200]}} {
				next := cur.Clone()
				for i, p := range touched {
					next.Set(p.U, p.V, cur.Get(p.U, p.V)*(0.9+0.1*float64(i+1)))
				}
				res, err := ps.AdaptDeltaCtx(ctx, prev, sortedLoads(g, prev), next, touched, nil)
				if err != nil {
					t.Fatal(err)
				}
				writeU64(delta, routingDigest(res.Routing))
				prev, cur = res.Routing, next
			}
			check("delta", delta.Sum64(), gc.delta)
		})
	}
}

// candidates is the candidate map the adaptation step hands the MWU: each
// support pair's deduplicated sampled paths.
func candidates(ps *core.PathSystem, d *demand.Demand) map[demand.Pair][]graph.Path {
	out := make(map[demand.Pair][]graph.Path)
	for _, p := range d.Support() {
		out[p] = ps.Unique(p.U, p.V)
	}
	return out
}

// sortedPairs returns r's pairs in (U, V) order.
func sortedPairs(r flow.Routing) []demand.Pair {
	pairs := make([]demand.Pair, 0, len(r))
	for p := range r {
		pairs = append(pairs, p)
	}
	slices.SortFunc(pairs, func(a, b demand.Pair) int {
		if a.U != b.U {
			return a.U - b.U
		}
		return a.V - b.V
	})
	return pairs
}

// sortedLoads sums r's edge loads in sorted pair order, so the background a
// delta solve sees does not depend on map iteration order.
func sortedLoads(g *graph.Graph, r flow.Routing) []float64 {
	loads := make([]float64, g.NumEdges())
	for _, p := range sortedPairs(r) {
		for _, wp := range r[p] {
			for _, id := range wp.Path.EdgeIDs {
				loads[id] += wp.Weight
			}
		}
	}
	return loads
}

// routingDigest hashes a routing as (pair, path source and edge IDs, weight
// bits) over its pairs in sorted order and each pair's paths in list order.
func routingDigest(r flow.Routing) uint64 {
	h := fnv.New64a()
	for _, p := range sortedPairs(r) {
		writeU64(h, uint64(p.U))
		writeU64(h, uint64(p.V))
		writeU64(h, uint64(len(r[p])))
		for _, wp := range r[p] {
			writeU64(h, uint64(wp.Path.Src))
			writeU64(h, uint64(len(wp.Path.EdgeIDs)))
			for _, id := range wp.Path.EdgeIDs {
				writeU64(h, uint64(id))
			}
			writeU64(h, math.Float64bits(wp.Weight))
		}
	}
	return h.Sum64()
}

func writeU64(h hash.Hash64, x uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], x)
	h.Write(buf[:])
}
