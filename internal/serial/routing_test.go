package serial

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"sparseroute/internal/core"
	"sparseroute/internal/demand"
	"sparseroute/internal/flow"
	"sparseroute/internal/graph"
	"sparseroute/internal/graph/gen"
	"sparseroute/internal/oblivious"
)

// servingRouting is the routing a cube7-mwu epoch publishes: a Räcke R=4
// system on hypercube-7 (the daemon's router defaults) adapted by MWU to a
// 256-pair gravity matrix.
func servingRouting(tb testing.TB) flow.Routing {
	tb.Helper()
	g := gen.Hypercube(7)
	router, err := oblivious.Build("raecke", g, &oblivious.BuildOptions{Trees: 12, K: 4, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	d := demand.Gravity(g, float64(g.NumEdges()), 256, rand.New(rand.NewPCG(7, 7)))
	ps, err := core.RSample(router, d.Support(), 4, 1)
	if err != nil {
		tb.Fatal(err)
	}
	r, err := ps.AdaptMWUCtx(context.Background(), d, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// referenceRouting is the encoding/json reference the appender must match:
// RoutingToJSON under json.Encoder with a one-space indent, nested depth
// levels deep as the "r" field of enclosing objects.
func referenceRouting(t *testing.T, r flow.Routing, depth int) []byte {
	t.Helper()
	var v any = RoutingToJSON(nil, r)
	for i := 0; i < depth; i++ {
		v = map[string]any{"r": v}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// appendNested wraps AppendRouting's output in the enclosing objects
// referenceRouting encodes.
func appendNested(r flow.Routing, depth int) ([]byte, error) {
	var b []byte
	for i := 0; i < depth; i++ {
		b = append(b, "{\n"+strings.Repeat(" ", i+1)+`"r": `...)
	}
	b, err := AppendRouting(b, r, depth)
	if err != nil {
		return nil, err
	}
	for i := depth - 1; i >= 0; i-- {
		b = append(b, "\n"+strings.Repeat(" ", i)+"}"...)
	}
	return append(b, '\n'), nil
}

func TestAppendRoutingMatchesEncodingJSON(t *testing.T) {
	path := func(src, dst int, ids ...int) graph.Path { return graph.Path{Src: src, Dst: dst, EdgeIDs: ids} }
	cases := []struct {
		name string
		r    flow.Routing
	}{
		{"empty routing", flow.New()},
		{"nil routing", nil},
		{"pair without paths", flow.Routing{{U: 0, V: 1}: nil}},
		{"path stored from V", flow.Routing{
			{U: 0, V: 3}: {{Path: path(3, 0, 7, 2, 5), Weight: 1.5}, {Path: path(0, 3, 1, 4, 6), Weight: 0.5}},
		}},
		{"empty edge lists", flow.Routing{
			{U: 2, V: 5}: {{Path: path(2, 5), Weight: 1}, {Path: path(5, 2, []int{}...), Weight: 2}},
		}},
		{"exponent-form weights", flow.Routing{
			{U: 0, V: 1}: {
				{Path: path(0, 1, 0), Weight: 1e-7},
				{Path: path(0, 1, 1), Weight: 3.25e-9},
				{Path: path(0, 1, 2), Weight: 5e-324},
				{Path: path(0, 1, 3), Weight: 1e-6},
				{Path: path(0, 1, 4), Weight: 9.99999e-7},
				{Path: path(0, 1, 5), Weight: 1e21},
				{Path: path(0, 1, 6), Weight: 999999999999999900000},
				{Path: path(0, 1, 7), Weight: 1.7976931348623157e308},
				{Path: path(0, 1, 8), Weight: 1e-100},
				{Path: path(0, 1, 9), Weight: 0.1 + 0.2},
			},
		}},
		{"unsorted pairs", flow.Routing{
			{U: 9, V: 10}: {{Path: path(9, 10, 12), Weight: 1}},
			{U: 1, V: 20}: {{Path: path(20, 1, 3, 4), Weight: 2}},
			{U: 1, V: 2}:  {{Path: path(1, 2, 0), Weight: 3}},
		}},
		{"hypercube-7 256-pair MWU routing", servingRouting(t)},
	}
	for _, c := range cases {
		for _, depth := range []int{0, 1, 3} {
			want := referenceRouting(t, c.r, depth)
			got, err := appendNested(c.r, depth)
			if err != nil {
				t.Fatalf("%s depth %d: %v", c.name, depth, err)
			}
			if !bytes.Equal(got, want) {
				i := 0
				for i < len(got) && i < len(want) && got[i] == want[i] {
					i++
				}
				t.Fatalf("%s depth %d: bytes differ at offset %d of %d/%d:\n got %q\nwant %q",
					c.name, depth, i, len(got), len(want), got[max(0, i-40):min(len(got), i+40)], want[max(0, i-40):min(len(want), i+40)])
			}
		}
		var buf bytes.Buffer
		if err := EncodeRouting(&buf, nil, c.r); err != nil {
			t.Fatal(err)
		}
		if want := referenceRouting(t, c.r, 0); !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%s: EncodeRouting differs from encoding/json", c.name)
		}
	}
}

func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 1e-6, 9.99e-7, -1e-7, 1e-10, 1e20, 1e21, -1e21, 1.5e300, 5e-324, 123456.789, 2.5e-8} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendFloat([]byte("x"), f)
		if err != nil || string(got) != "x"+string(want) {
			t.Fatalf("AppendFloat(%v) = %q, %v; want x%s", f, got, err, want)
		}
	}
}

// A weight encoding/json refuses must fail the appender the same way, never
// reach the output as invalid JSON.
func TestAppendRoutingRejectsNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := AppendFloat(nil, f); err == nil {
			t.Fatalf("AppendFloat(%v) accepted", f)
		}
		r := flow.Routing{{U: 0, V: 1}: {{Path: graph.Path{Src: 0, Dst: 1, EdgeIDs: []int{0}}, Weight: f}}}
		b, err := AppendRouting([]byte("prefix"), r, 1)
		var uve *json.UnsupportedValueError
		if !errors.As(err, &uve) {
			t.Fatalf("weight %v: err %v, want a *json.UnsupportedValueError", f, err)
		}
		if string(b) != "prefix" {
			t.Fatalf("weight %v: dst extended to %q on error", f, b)
		}
		var buf bytes.Buffer
		if err := EncodeRouting(&buf, nil, r); err == nil || buf.Len() != 0 {
			t.Fatalf("weight %v: EncodeRouting wrote %d bytes, err %v", f, buf.Len(), err)
		}
	}
}

// BenchmarkRoutingReply encodes the routing a cube7-mwu epoch serves on GET
// /v1/routing, with the appender and with the encoding/json reference.
func BenchmarkRoutingReply(b *testing.B) {
	r := servingRouting(b)
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, err := AppendRouting(nil, r, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(out)))
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", " ")
			if err := enc.Encode(RoutingToJSON(nil, r)); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(buf.Len()))
		}
	})
}
