package core

import (
	"context"
	"testing"

	"sparseroute/internal/demand"
	"sparseroute/internal/graph/gen"
	"sparseroute/internal/mcf"
)

// ringSystem builds a tiny path system on a ring with both arcs between 0
// and 2 as candidates.
func ringSystem(t *testing.T) *PathSystem {
	t.Helper()
	g := gen.Ring(6)
	ps := NewPathSystem(g)
	p, err := g.ShortestPathHops(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.AddPath(p); err != nil {
		t.Fatal(err)
	}
	return ps
}

func TestAdaptOnSolverExact(t *testing.T) {
	ps := ringSystem(t)
	d := demand.SinglePair(0, 2, 1)
	var solvers []string
	_, err := ps.Adapt(d, &AdaptOptions{
		OnSolver: func(s string) { solvers = append(solvers, s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(solvers) != 1 || solvers[0] != "exact" {
		t.Fatalf("solvers = %v, want [exact]", solvers)
	}
}

// TestAdaptOnSolverForcedMWU: above the exact solver's 600-variable limit
// AdaptCtx goes straight to MWU. Every pair of a 36-clique routes on its
// direct edge, so the demand over all 630 pairs has 630 variables.
func TestAdaptOnSolverForcedMWU(t *testing.T) {
	g := gen.Complete(36)
	ps := NewPathSystem(g)
	d := demand.New()
	for u := 0; u < g.NumVertices(); u++ {
		for v := u + 1; v < g.NumVertices(); v++ {
			p, err := g.ShortestPathHops(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if err := ps.AddPath(p); err != nil {
				t.Fatal(err)
			}
			d.Set(u, v, 1)
		}
	}
	var solvers []string
	_, err := ps.Adapt(d, &AdaptOptions{
		OnSolver: func(s string) { solvers = append(solvers, s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(solvers) != 1 || solvers[0] != "mwu" {
		t.Fatalf("solvers = %v, want [mwu]", solvers)
	}
}

func TestAdaptMWUProgressThreadsThrough(t *testing.T) {
	ps := ringSystem(t)
	d := demand.SinglePair(0, 2, 1)
	rounds := 0
	opt := &mcf.Options{Iterations: 32, ProgressEvery: 8}
	opt.Progress = func(round int, _ float64) { rounds = round }
	if _, err := ps.AdaptMWUCtx(context.Background(), d, opt); err != nil {
		t.Fatal(err)
	}
	if rounds != 32 {
		t.Fatalf("last progress round = %d, want 32", rounds)
	}
}
