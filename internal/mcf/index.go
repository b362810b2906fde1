package mcf

import (
	"fmt"

	"sparseroute/internal/demand"
	"sparseroute/internal/flow"
	"sparseroute/internal/graph"
)

// pathIndex is the flat form of a candidate map over a sorted support, built
// once per MinCongestionOnPaths call so the MWU rounds touch only slices:
// pair i is support[i], its candidates are the indices first[i] up to
// first[i+1], and candidate k (the (k-first[i])-th path of cand[support[i]])
// crosses the edges arena[off[k]:off[k+1]] in path order.
type pathIndex struct {
	amt   []float64 // demand of each support pair
	first []int32   // per-pair candidate offsets, len(support)+1 entries
	off   []int32   // per-candidate arena offsets, one more than candidates
	arena []int32   // every candidate's edge IDs, concatenated
	used  []int32   // the edge IDs some candidate crosses, ascending
	last  []int32   // per edge ID, the last pair crossing it (-1: none)
	cap   []float64 // capacity per edge ID
}

// indexPaths flattens cand over support, sizing every slice from one counting
// pass. It fails with ErrNoCandidates when a support pair has no candidate.
func indexPaths(g *graph.Graph, cand map[demand.Pair][]graph.Path, support []demand.Pair, d *demand.Demand) (*pathIndex, error) {
	nCand, nHops := 0, 0
	for _, p := range support {
		paths := cand[p]
		if len(paths) == 0 {
			return nil, fmt.Errorf("%w: %v", ErrNoCandidates, p)
		}
		nCand += len(paths)
		for _, path := range paths {
			nHops += len(path.EdgeIDs)
		}
	}
	ix := &pathIndex{
		amt:   make([]float64, len(support)),
		first: make([]int32, 1, len(support)+1),
		off:   make([]int32, 1, nCand+1),
		arena: make([]int32, 0, nHops),
		last:  make([]int32, g.NumEdges()),
		cap:   make([]float64, g.NumEdges()),
	}
	for id := range ix.last {
		ix.last[id] = -1
	}
	nUsed := 0
	for i, p := range support {
		ix.amt[i] = d.Get(p.U, p.V)
		for _, path := range cand[p] {
			for _, id := range path.EdgeIDs {
				ix.arena = append(ix.arena, int32(id))
				if ix.last[id] < 0 {
					nUsed++
				}
				ix.last[id] = int32(i)
			}
			ix.off = append(ix.off, int32(len(ix.arena)))
		}
		ix.first = append(ix.first, int32(len(ix.off)-1))
	}
	ix.used = make([]int32, 0, nUsed)
	for id, e := range g.Edges() {
		ix.cap[id] = e.Capacity
		if ix.last[id] >= 0 {
			ix.used = append(ix.used, int32(id))
		}
	}
	return ix, nil
}

// idleMax is the largest positive base load on an edge no candidate
// crosses, 0 when there is none or base is nil.
func (ix *pathIndex) idleMax(base []float64) float64 {
	mx := 0.0
	for id, b := range base {
		if ix.last[id] < 0 && b > mx {
			mx = b
		}
	}
	return mx
}

// edges returns candidate k's edge IDs in path order.
func (ix *pathIndex) edges(k int32) []int32 { return ix.arena[ix.off[k]:ix.off[k+1]] }

// numCandidates is the number of indexed candidate paths.
func (ix *pathIndex) numCandidates() int { return len(ix.off) - 1 }

// routing turns per-candidate round counts into the averaged routing: pair i
// sends amt·count/(iterations+seeded[i]) on every candidate it chose at least
// once, in candidate order. All pairs share one backing array, each slice
// capped at its own length so an append by a caller copies instead of
// overwriting the next pair.
func (ix *pathIndex) routing(cand map[demand.Pair][]graph.Path, support []demand.Pair, chosen, seeded []float64, iterations int) flow.Routing {
	n := 0
	for _, cnt := range chosen {
		if cnt > 0 {
			n++
		}
	}
	wps := make([]flow.WeightedPath, 0, n)
	out := make(flow.Routing, len(support))
	for i, p := range support {
		amt, tot, start := ix.amt[i], float64(iterations)+seeded[i], len(wps)
		for k := ix.first[i]; k < ix.first[i+1]; k++ {
			if cnt := chosen[k]; cnt > 0 {
				wps = append(wps, flow.WeightedPath{
					Path:   cand[p][k-ix.first[i]],
					Weight: amt * cnt / tot,
				})
			}
		}
		if end := len(wps); end > start {
			out[p] = wps[start:end:end]
		}
	}
	return out
}
