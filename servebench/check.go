package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"sparseroute/internal/demand"
	"sparseroute/internal/graph"
	"sparseroute/internal/serial"
)

// routingReply is the GET /v1/routing envelope.
type routingReply struct {
	Epoch      uint64          `json:"epoch"`
	Congestion float64         `json:"congestion"`
	Routing    json.RawMessage `json:"routing"`
}

// checkRouting verifies one GET /v1/routing body against what the
// generator expects the daemon to serve, and returns the body's epoch:
//   - every pair of want routes exactly its demand (to 1e-6), and no other
//     pair carries flow;
//   - every path is a valid u→v walk that avoids the failed edges;
//   - the reported congestion equals MaxCongestion recomputed on g.
func checkRouting(body []byte, g *graph.Graph, want *demand.Demand, failed map[int]bool) (uint64, error) {
	var env routingReply
	if err := json.Unmarshal(body, &env); err != nil {
		return 0, fmt.Errorf("decoding routing reply: %w", err)
	}
	// DecodeRouting rejects any path that is not a walk from its pair's u to
	// its v in g, and any nonpositive weight.
	r, err := serial.DecodeRouting(bytes.NewReader(env.Routing), g)
	if err != nil {
		return env.Epoch, err
	}
	for pair, wps := range r {
		if want.Get(pair.U, pair.V) <= 0 {
			return env.Epoch, fmt.Errorf("pair (%d,%d) carries flow but is not in the demand", pair.U, pair.V)
		}
		for i, wp := range wps {
			for _, id := range wp.Path.EdgeIDs {
				if failed[id] {
					return env.Epoch, fmt.Errorf("pair (%d,%d) path %d crosses failed edge %d", pair.U, pair.V, i, id)
				}
			}
		}
	}
	for _, p := range want.Support() {
		amount, got := want.Get(p.U, p.V), r.FlowFor(p.U, p.V)
		if math.Abs(got-amount) > 1e-6*math.Max(1, amount) {
			return env.Epoch, fmt.Errorf("pair (%d,%d) routes %.9g, demand is %.9g", p.U, p.V, got, amount)
		}
	}
	cong := r.MaxCongestion(g)
	if math.Abs(cong-env.Congestion) > 1e-9*math.Max(1, cong) {
		return env.Epoch, fmt.Errorf("reported congestion %.12g, recomputed %.12g", env.Congestion, cong)
	}
	return env.Epoch, nil
}
