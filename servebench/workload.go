package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"

	"sparseroute/internal/demand"
	"sparseroute/internal/graph"
	"sparseroute/internal/graph/gen"
	"sparseroute/internal/serial"
	"sparseroute/internal/temodel"
)

// workload is one traffic mix. context.json records why each exists; a
// test keeps the two in step.
type workload struct {
	Name     string
	Topology string
	// Pairs is the support size of every gravity matrix.
	Pairs int
	// Patch selects PATCH deltas (1–2 pairs re-set to ±10% of the base
	// amount) against one base matrix instead of a fresh full matrix per
	// mutation.
	Patch bool
	// LinkEvery is the number of mutations between link events (0: none);
	// the events alternate between failing a seeded edge and restoring it.
	// Only Patch workloads may have them: the replay serves link events
	// from the engine that holds the patched matrix.
	LinkEvery int
}

// Only cube7-churn has link events: a hypercube-7 failure costs 0.4-0.7 s
// (a router rebuild on the survivors), which would swamp the solver layers
// the other two workloads isolate. Its LinkEvery is a multiple of 9 =
// WarmMaxStreak+1, so every delta chain between two link events holds a
// whole number of streak-capped runs and the cold re-anchor share is
// exactly 1/9.
var workloads = []workload{
	{Name: "grid8-lp", Topology: "grid-8x8", Pairs: 16},
	{Name: "cube7-mwu", Topology: "hypercube-7", Pairs: 256},
	{Name: "cube7-churn", Topology: "hypercube-7", Pairs: 256, Patch: true, LinkEvery: 81},
}

// congestionPrefix is how many mutations (the warm-up included)
// congestion_mean averages over. A run always completes them, so the value
// depends on (workload, seed) and the program alone, never on timing.
const congestionPrefix = 128

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func topology(name string) (*graph.Graph, error) {
	switch name {
	case "grid-8x8":
		return gen.Grid(8, 8), nil
	case "hypercube-7":
		return gen.Hypercube(7), nil
	}
	return nil, fmt.Errorf("unknown topology %q", name)
}

type opKind int

const (
	opPost opKind = iota
	opPatch
	opFail
	opRestore
)

func (k opKind) String() string {
	return [...]string{"POST /v1/demand", "PATCH /v1/demand", "POST /v1/links fail", "POST /v1/links restore"}[k]
}

// op is one request of the controller's list.
type op struct {
	Kind opKind
	Body []byte
	// Matrix is the demand the daemon should serve once the op is applied.
	Matrix *demand.Demand
	// Set holds a patch's entries (PATCH only).
	Set []serial.DemandEntryJSON
	// Edge is the link event's edge (fail/restore only).
	Edge int
	// Failed is the failed-edge set after the op.
	Failed map[int]bool
}

func (o op) mutation() bool { return o.Kind == opPost || o.Kind == opPatch }

// generator produces a workload's request list. The list is a pure function
// of (workload, seed): next draws everything from one seeded stream.
type generator struct {
	w     workload
	g     *graph.Graph
	rng   *rand.Rand
	total float64

	base      *demand.Demand
	current   *demand.Demand
	support   []demand.Pair
	mutations int
	events    int
	failed    int // edge currently failed, -1 for none
}

func newGenerator(w workload, g *graph.Graph, seed uint64) *generator {
	h := fnv.New64a()
	h.Write([]byte(w.Name))
	return &generator{
		w:      w,
		g:      g,
		rng:    rand.New(rand.NewPCG(seed, h.Sum64())),
		total:  float64(g.NumEdges()),
		failed: -1,
	}
}

func (gn *generator) failedSet() map[int]bool {
	if gn.failed < 0 {
		return nil
	}
	return map[int]bool{gn.failed: true}
}

// next returns the following op. The first op is always a full matrix.
func (gn *generator) next() op {
	if gn.w.LinkEvery > 0 && gn.mutations > 0 && gn.mutations%gn.w.LinkEvery == 0 && gn.events < gn.mutations/gn.w.LinkEvery {
		gn.events++
		if gn.failed < 0 {
			gn.failed = gn.rng.IntN(gn.g.NumEdges())
			return op{Kind: opFail, Body: linkBody("fail", gn.failed), Matrix: gn.current, Edge: gn.failed, Failed: gn.failedSet()}
		}
		e := gn.failed
		gn.failed = -1
		return op{Kind: opRestore, Body: linkBody("restore", e), Matrix: gn.current, Edge: e}
	}
	gn.mutations++
	if !gn.w.Patch || gn.base == nil {
		var d *demand.Demand
		if gn.w.Patch {
			// One matrix serves the whole run, so its total is fixed: a
			// drawn scale would move congestion_mean from seed to seed by
			// up to 3x.
			d = demand.Gravity(gn.g, gn.total, gn.w.Pairs, gn.rng)
		} else {
			d = temodel.GravitySequence(gn.g, 1, gn.total, gn.w.Pairs, gn.rng)[0]
		}
		gn.base, gn.current, gn.support = d, d, d.Support()
		return op{Kind: opPost, Body: demandBody(d), Matrix: d, Failed: gn.failedSet()}
	}
	k := 1 + gn.rng.IntN(2)
	next := gn.current.Clone()
	var set []serial.DemandEntryJSON
	for _, i := range gn.rng.Perm(len(gn.support))[:k] {
		p := gn.support[i]
		amount := gn.base.Get(p.U, p.V) * (0.9 + 0.2*gn.rng.Float64())
		next.Set(p.U, p.V, amount)
		set = append(set, serial.DemandEntryJSON{U: p.U, V: p.V, Amount: amount})
	}
	gn.current = next
	body, _ := json.Marshal(map[string]any{"set": set}) // cannot fail: plain structs
	return op{Kind: opPatch, Body: body, Matrix: next, Set: set, Failed: gn.failedSet()}
}

// demandBody is the compact wire form of d with sorted pairs.
func demandBody(d *demand.Demand) []byte {
	var in serial.DemandJSON
	for _, p := range d.Support() {
		in.Entries = append(in.Entries, serial.DemandEntryJSON{U: p.U, V: p.V, Amount: d.Get(p.U, p.V)})
	}
	b, _ := json.Marshal(in) // cannot fail: plain structs
	return b
}

func linkBody(kind string, edge int) []byte {
	return []byte(fmt.Sprintf(`{%q:[%d]}`, kind, edge))
}
