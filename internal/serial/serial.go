// Package serial defines the on-disk JSON formats for graphs, demands, path
// systems and routings, so topologies and installed path systems can be
// generated once, inspected, versioned, and replayed — the workflow the
// cmd/sparseroute tool exposes (generate topology → sample system → adapt to
// demands), mirroring how a traffic-engineering pipeline would deploy the
// construction.
package serial

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"sparseroute/internal/core"
	"sparseroute/internal/demand"
	"sparseroute/internal/flow"
	"sparseroute/internal/graph"
)

// GraphJSON is the graph wire format.
type GraphJSON struct {
	Vertices int        `json:"vertices"`
	Edges    []EdgeJSON `json:"edges"`
}

// EdgeJSON is one edge. Edge IDs are implicit: the i-th entry has ID i.
type EdgeJSON struct {
	U        int     `json:"u"`
	V        int     `json:"v"`
	Capacity float64 `json:"capacity"`
}

// GraphToJSON converts g to its wire form.
func GraphToJSON(g *graph.Graph) GraphJSON {
	out := GraphJSON{Vertices: g.NumVertices()}
	for _, e := range g.Edges() {
		out.Edges = append(out.Edges, EdgeJSON{U: e.U, V: e.V, Capacity: e.Capacity})
	}
	return out
}

// GraphFromJSON validates the wire form and rebuilds the graph. Edge IDs are
// assigned in wire order, so paths serialized against this graph stay valid.
func GraphFromJSON(in GraphJSON) (*graph.Graph, error) {
	if in.Vertices < 0 {
		return nil, fmt.Errorf("serial: negative vertex count")
	}
	g := graph.New(in.Vertices)
	for i, e := range in.Edges {
		if e.U < 0 || e.U >= in.Vertices || e.V < 0 || e.V >= in.Vertices || e.U == e.V || e.Capacity <= 0 {
			return nil, fmt.Errorf("serial: edge %d invalid: %+v", i, e)
		}
		g.AddEdge(e.U, e.V, e.Capacity)
	}
	return g, nil
}

// EncodeGraph writes g as JSON.
func EncodeGraph(w io.Writer, g *graph.Graph) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(GraphToJSON(g))
}

// DecodeGraph reads a graph from JSON.
func DecodeGraph(r io.Reader) (*graph.Graph, error) {
	var in GraphJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("serial: decoding graph: %w", err)
	}
	return GraphFromJSON(in)
}

// DemandJSON is the demand wire format.
type DemandJSON struct {
	Entries []DemandEntryJSON `json:"entries"`
}

// DemandEntryJSON is one demand pair.
type DemandEntryJSON struct {
	U      int     `json:"u"`
	V      int     `json:"v"`
	Amount float64 `json:"amount"`
}

// EncodeDemand writes d as JSON (sorted pairs, deterministic output).
func EncodeDemand(w io.Writer, d *demand.Demand) error {
	var out DemandJSON
	for _, p := range d.Support() {
		out.Entries = append(out.Entries, DemandEntryJSON{U: p.U, V: p.V, Amount: d.Get(p.U, p.V)})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// DecodeDemand reads a demand from JSON.
func DecodeDemand(r io.Reader) (*demand.Demand, error) {
	var in DemandJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("serial: decoding demand: %w", err)
	}
	d := demand.New()
	for i, e := range in.Entries {
		if e.U == e.V || e.Amount <= 0 {
			return nil, fmt.Errorf("serial: demand entry %d invalid: %+v", i, e)
		}
		d.Add(e.U, e.V, e.Amount)
	}
	return d, nil
}

// PathSystemJSON is the path-system wire format. Paths reference edge IDs of
// the accompanying graph file.
type PathSystemJSON struct {
	Pairs []PairPathsJSON `json:"pairs"`
}

// PairPathsJSON holds the candidate paths of one pair.
type PairPathsJSON struct {
	U     int     `json:"u"`
	V     int     `json:"v"`
	Paths [][]int `json:"paths"`
}

// PathSystemToJSON converts ps to its wire form, each path oriented from the
// pair's smaller endpoint for a canonical encoding.
func PathSystemToJSON(ps *core.PathSystem) PathSystemJSON {
	var out PathSystemJSON
	for _, pr := range ps.Pairs() {
		pp := PairPathsJSON{U: pr.U, V: pr.V}
		for _, p := range ps.Paths(pr.U, pr.V) {
			ids := p.EdgeIDs
			if ids == nil {
				ids = []int{}
			}
			// Orient each stored path from pr.U for a canonical encoding.
			if p.Src != pr.U {
				ids = p.Reverse().EdgeIDs
			}
			pp.Paths = append(pp.Paths, ids)
		}
		out.Pairs = append(out.Pairs, pp)
	}
	return out
}

// PathSystemFromJSON validates the wire form against g and rebuilds the
// system.
func PathSystemFromJSON(in PathSystemJSON, g *graph.Graph) (*core.PathSystem, error) {
	ps := core.NewPathSystem(g)
	for _, pp := range in.Pairs {
		for i, ids := range pp.Paths {
			p := graph.Path{Src: pp.U, Dst: pp.V, EdgeIDs: ids}
			if err := ps.AddPath(p); err != nil {
				return nil, fmt.Errorf("serial: pair (%d,%d) path %d: %w", pp.U, pp.V, i, err)
			}
		}
	}
	return ps, nil
}

// EncodePathSystem writes ps as JSON.
func EncodePathSystem(w io.Writer, ps *core.PathSystem) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(PathSystemToJSON(ps))
}

// DecodePathSystem reads a path system over g from JSON. Every path is
// validated against g.
func DecodePathSystem(r io.Reader, g *graph.Graph) (*core.PathSystem, error) {
	var in PathSystemJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("serial: decoding path system: %w", err)
	}
	return PathSystemFromJSON(in, g)
}

// RoutingJSON is the routing wire format.
type RoutingJSON struct {
	Pairs []PairFlowsJSON `json:"pairs"`
}

// PairFlowsJSON holds the weighted paths of one pair.
type PairFlowsJSON struct {
	U     int                `json:"u"`
	V     int                `json:"v"`
	Paths []WeightedPathJSON `json:"paths"`
}

// WeightedPathJSON is one weighted path.
type WeightedPathJSON struct {
	Edges  []int   `json:"edges"`
	Weight float64 `json:"weight"`
}

// RoutingToJSON converts a routing to its wire form with deterministic pair
// order.
func RoutingToJSON(g *graph.Graph, r flow.Routing) RoutingJSON {
	var out RoutingJSON
	for _, pr := range sortedPairs(r) {
		pf := PairFlowsJSON{U: pr.U, V: pr.V}
		for _, wp := range r[pr] {
			ids := wp.Path.EdgeIDs
			if wp.Path.Src != pr.U {
				ids = wp.Path.Reverse().EdgeIDs
			}
			if ids == nil {
				ids = []int{}
			}
			pf.Paths = append(pf.Paths, WeightedPathJSON{Edges: ids, Weight: wp.Weight})
		}
		out.Pairs = append(out.Pairs, pf)
	}
	return out
}

// sortedPairs returns r's pairs in (U, V) order, the wire order of a routing.
func sortedPairs(r flow.Routing) []demand.Pair {
	pairs := make([]demand.Pair, 0, len(r))
	for pr := range r {
		pairs = append(pairs, pr)
	}
	slices.SortFunc(pairs, func(a, b demand.Pair) int {
		if c := cmp.Compare(a.U, b.U); c != 0 {
			return c
		}
		return cmp.Compare(a.V, b.V)
	})
	return pairs
}

// EncodeRouting writes a routing as JSON: the bytes encoding/json writes for
// RoutingToJSON under a one-space indent, from AppendRouting.
func EncodeRouting(w io.Writer, g *graph.Graph, r flow.Routing) error {
	b, err := AppendRouting(nil, r, 0)
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// AppendRouting appends the wire form of r to dst without reflection. The
// bytes are exactly those json.Encoder with SetIndent("", " ") writes for
// RoutingToJSON(r) nested depth levels deep (0 for a whole document), less
// the trailing newline: pairs in (U, V) order, each path oriented from its
// pair's U, null for a routing or pair without paths, [] for an empty edge
// list. A NaN or infinite weight is an error, as it is for encoding/json,
// and dst comes back unextended.
func AppendRouting(dst []byte, r flow.Routing, depth int) ([]byte, error) {
	start := len(dst)
	dst = slices.Grow(dst, routingSize(r, depth))
	// ind[:1+depth+k] breaks the line and indents it to level depth+k.
	ind := "\n" + strings.Repeat(" ", depth+6)
	at := func(k int) string { return ind[:1+depth+k] }
	dst = append(dst, '{')
	dst = append(dst, at(1)...)
	dst = append(dst, `"pairs": `...)
	pairs := sortedPairs(r)
	if len(pairs) == 0 {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
	}
	for i, pr := range pairs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, at(2)...)
		dst = append(dst, '{')
		dst = append(dst, at(3)...)
		dst = append(dst, `"u": `...)
		dst = strconv.AppendInt(dst, int64(pr.U), 10)
		dst = append(dst, ',')
		dst = append(dst, at(3)...)
		dst = append(dst, `"v": `...)
		dst = strconv.AppendInt(dst, int64(pr.V), 10)
		dst = append(dst, ',')
		dst = append(dst, at(3)...)
		dst = append(dst, `"paths": `...)
		wps := r[pr]
		if len(wps) == 0 {
			dst = append(dst, "null"...)
		} else {
			dst = append(dst, '[')
		}
		for j, wp := range wps {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, at(4)...)
			dst = append(dst, '{')
			dst = append(dst, at(5)...)
			dst = append(dst, `"edges": [`...)
			ids, rev := wp.Path.EdgeIDs, wp.Path.Src != pr.U
			for k := range ids {
				if k > 0 {
					dst = append(dst, ',')
				}
				id := ids[k]
				if rev {
					id = ids[len(ids)-1-k]
				}
				dst = append(dst, at(6)...)
				dst = strconv.AppendInt(dst, int64(id), 10)
			}
			if len(ids) > 0 {
				dst = append(dst, at(5)...)
			}
			dst = append(dst, "],"...)
			dst = append(dst, at(5)...)
			dst = append(dst, `"weight": `...)
			var err error
			if dst, err = AppendFloat(dst, wp.Weight); err != nil {
				return dst[:start], fmt.Errorf("serial: pair (%d,%d) path %d weight: %w", pr.U, pr.V, j, err)
			}
			dst = append(dst, at(4)...)
			dst = append(dst, '}')
		}
		if len(wps) > 0 {
			dst = append(dst, at(3)...)
			dst = append(dst, ']')
		}
		dst = append(dst, at(2)...)
		dst = append(dst, '}')
	}
	if len(pairs) > 0 {
		dst = append(dst, at(1)...)
		dst = append(dst, ']')
	}
	dst = append(dst, at(0)...)
	return append(dst, '}'), nil
}

// routingSize bounds from above the bytes AppendRouting writes for r at
// depth while every vertex and edge ID has at most 7 digits, so one
// allocation holds the encoding.
func routingSize(r flow.Routing, depth int) int {
	n := 3*depth + 20
	for _, wps := range r {
		n += 6*depth + 64
		for _, wp := range wps {
			n += 5*depth + 80 + len(wp.Path.EdgeIDs)*(depth+15)
		}
	}
	return n
}

// AppendFloat appends f as encoding/json writes a float64: the shortest
// decimal that reads back as f, in exponent form below 1e-6 and from 1e21
// up, with a one-digit negative exponent written as e-7, not e-07. NaN and
// ±Inf have no JSON form: they are the *json.UnsupportedValueError
// encoding/json returns, and dst comes back unextended.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// DecodeRouting reads a routing over g from JSON, validating every path.
func DecodeRouting(r io.Reader, g *graph.Graph) (flow.Routing, error) {
	var in RoutingJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("serial: decoding routing: %w", err)
	}
	out := flow.New()
	for _, pf := range in.Pairs {
		for i, wp := range pf.Paths {
			p := graph.Path{Src: pf.U, Dst: pf.V, EdgeIDs: wp.Edges}
			if err := p.Validate(g); err != nil {
				return nil, fmt.Errorf("serial: pair (%d,%d) path %d: %w", pf.U, pf.V, i, err)
			}
			if wp.Weight <= 0 {
				return nil, fmt.Errorf("serial: pair (%d,%d) path %d: nonpositive weight", pf.U, pf.V, i)
			}
			out.AddFlow(p, wp.Weight)
		}
	}
	return out, nil
}
