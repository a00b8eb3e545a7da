package geo

import (
	"testing"
	"testing/quick"
)

func TestGraphDistanceBasics(t *testing.T) {
	g := MustGridTiling(4, 4)
	gr := NewGraph(g)
	tests := []struct {
		name string
		u, v RegionID
		want int
	}{
		{name: "self", u: 0, v: 0, want: 0},
		{name: "adjacent", u: 0, v: 1, want: 1},
		{name: "diagonal", u: 0, v: 5, want: 1},
		{name: "across", u: g.RegionAt(0, 0), v: g.RegionAt(3, 3), want: 3},
		{name: "row", u: g.RegionAt(0, 2), v: g.RegionAt(3, 2), want: 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := gr.Distance(tt.u, tt.v); got != tt.want {
				t.Errorf("Distance(%v, %v) = %d, want %d", tt.u, tt.v, got, tt.want)
			}
		})
	}
	if got := gr.Distance(NoRegion, 0); got != -1 {
		t.Errorf("Distance(NoRegion, 0) = %d, want -1", got)
	}
	if got := gr.Distance(0, RegionID(99)); got != -1 {
		t.Errorf("Distance(0, out-of-range) = %d, want -1", got)
	}
}

func TestGraphDiameter(t *testing.T) {
	tests := []struct {
		w, h int
		want int
	}{
		{1, 1, 0},
		{2, 2, 1},
		{4, 4, 3},
		{8, 8, 7},
		{3, 7, 6},
	}
	for _, tt := range tests {
		gr := NewGraph(MustGridTiling(tt.w, tt.h))
		if got := gr.Diameter(); got != tt.want {
			t.Errorf("Diameter(%dx%d) = %d, want %d", tt.w, tt.h, got, tt.want)
		}
	}
}

func TestGraphPath(t *testing.T) {
	g := MustGridTiling(5, 5)
	gr := NewGraph(g)
	u, v := g.RegionAt(0, 0), g.RegionAt(4, 2)
	path := gr.Path(u, v)
	if len(path) != gr.Distance(u, v)+1 {
		t.Fatalf("len(Path) = %d, want %d", len(path), gr.Distance(u, v)+1)
	}
	if path[0] != u || path[len(path)-1] != v {
		t.Fatalf("Path endpoints = %v..%v, want %v..%v", path[0], path[len(path)-1], u, v)
	}
	for i := 0; i+1 < len(path); i++ {
		if !AreNeighbors(g, path[i], path[i+1]) {
			t.Fatalf("Path step %v -> %v is not an edge", path[i], path[i+1])
		}
	}
	if p := gr.Path(u, u); len(p) != 1 || p[0] != u {
		t.Errorf("Path(u,u) = %v, want [u]", p)
	}
}

func TestGraphNextHopConverges(t *testing.T) {
	g := MustGridTiling(6, 4)
	gr := NewGraph(g)
	u, v := g.RegionAt(5, 3), g.RegionAt(0, 0)
	cur := u
	for steps := 0; cur != v; steps++ {
		if steps > gr.Distance(u, v) {
			t.Fatalf("NextHop walk from %v to %v did not converge", u, v)
		}
		nxt := gr.NextHop(cur, v)
		if nxt == NoRegion {
			t.Fatalf("NextHop(%v, %v) = NoRegion", cur, v)
		}
		if gr.Distance(nxt, v) != gr.Distance(cur, v)-1 {
			t.Fatalf("NextHop(%v, %v) = %v does not reduce distance", cur, v, nxt)
		}
		cur = nxt
	}
	if got := gr.NextHop(u, u); got != u {
		t.Errorf("NextHop(u,u) = %v, want %v", got, u)
	}
	if got := gr.NextHop(NoRegion, v); got != NoRegion {
		t.Errorf("NextHop(NoRegion, v) = %v, want NoRegion", got)
	}
}

func TestGraphRegionsWithin(t *testing.T) {
	g := MustGridTiling(5, 5)
	gr := NewGraph(g)
	center := g.RegionAt(2, 2)
	within1 := gr.RegionsWithin(center, 1)
	if len(within1) != 9 {
		t.Errorf("len(RegionsWithin(center, 1)) = %d, want 9", len(within1))
	}
	within0 := gr.RegionsWithin(center, 0)
	if len(within0) != 1 || within0[0] != center {
		t.Errorf("RegionsWithin(center, 0) = %v, want [center]", within0)
	}
	all := gr.RegionsWithin(center, 100)
	if len(all) != g.NumRegions() {
		t.Errorf("RegionsWithin(center, 100) covers %d regions, want %d", len(all), g.NumRegions())
	}
}

// hiddenMetric is a grid without its Metric: a Graph over it answers from
// BFS rows.
type hiddenMetric struct{ Tiling }

// After Precompute every Distance and NextHop is a lookup: a sweep over all
// pairs allocates nothing, whether the graph has rows to build or not.
func TestGraphPrecompute(t *testing.T) {
	g := MustGridTiling(3, 3)
	for name, tl := range map[string]Tiling{"grid": g, "rows": hiddenMetric{g}} {
		gr := NewGraph(tl)
		gr.Precompute()
		if got := testing.AllocsPerRun(10, func() {
			for u := RegionID(0); int(u) < g.NumRegions(); u++ {
				for v := RegionID(0); int(v) < g.NumRegions(); v++ {
					if gr.Distance(u, v) != g.ChebyshevDistance(u, v) {
						t.Fatalf("%s: Distance(%v, %v) = %d", name, u, v, gr.Distance(u, v))
					}
					if nh := gr.NextHop(u, v); u != v && !AreNeighbors(g, u, nh) {
						t.Fatalf("%s: NextHop(%v, %v) = %v is not a neighbor", name, u, v, nh)
					}
				}
			}
		}); got != 0 {
			t.Errorf("%s: a full sweep after Precompute allocated %v times, want 0", name, got)
		}
	}
}

// A region outside the tiling has an empty ball, as it has distance -1 and
// no next hop.
func TestGraphRegionsWithinOutsideTiling(t *testing.T) {
	gr := NewGraph(MustGridTiling(3, 3))
	if got := gr.RegionsWithin(NoRegion, 1); len(got) != 0 {
		t.Errorf("RegionsWithin(NoRegion, 1) = %v, want empty", got)
	}
	if got := gr.RegionsWithinCached(RegionID(99), 1); len(got) != 0 {
		t.Errorf("RegionsWithinCached(r99, 1) = %v, want empty", got)
	}
	rows := NewGraph(hiddenMetric{MustGridTiling(3, 3)})
	if got := rows.RegionsWithin(RegionID(9), 5); len(got) != 0 {
		t.Errorf("rows: RegionsWithin(r9, 5) = %v, want empty", got)
	}
}

// Property: distance is a metric on the grid (symmetry + triangle
// inequality + identity of indiscernibles).
func TestGraphDistanceIsMetric(t *testing.T) {
	g := MustGridTiling(5, 4)
	gr := NewGraph(g)
	n := g.NumRegions()
	f := func(a, b, c uint16) bool {
		u, v, w := RegionID(int(a)%n), RegionID(int(b)%n), RegionID(int(c)%n)
		duv, dvu := gr.Distance(u, v), gr.Distance(v, u)
		if duv != dvu {
			return false
		}
		if (duv == 0) != (u == v) {
			return false
		}
		return gr.Distance(u, w) <= duv+gr.Distance(v, w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: every neighbor is at distance exactly 1.
func TestNeighborsAtDistanceOne(t *testing.T) {
	g := MustGridTiling(4, 6)
	gr := NewGraph(g)
	for u := RegionID(0); int(u) < g.NumRegions(); u++ {
		for _, v := range g.Neighbors(u) {
			if gr.Distance(u, v) != 1 {
				t.Fatalf("Distance(%v, nbr %v) != 1", u, v)
			}
		}
	}
}

// Diameter is memoized (it used to recompute the all-pairs maximum on every
// call, once per sweep cell): repeated calls must agree with the first, and
// a fresh graph over the same tiling must agree with both.
func TestGraphDiameterMemoized(t *testing.T) {
	g := MustGridTiling(9, 5)
	gr := NewGraph(g)
	first := gr.Diameter()
	if first != 8 {
		t.Fatalf("Diameter = %d, want 8", first)
	}
	for i := 0; i < 3; i++ {
		if got := gr.Diameter(); got != first {
			t.Fatalf("memoized Diameter call %d = %d, want %d", i, got, first)
		}
	}
	if fresh := NewGraph(g).Diameter(); fresh != first {
		t.Fatalf("fresh graph Diameter = %d, memoized = %d", fresh, first)
	}
}

// RegionsWithinCached must return exactly what RegionsWithin computes, and
// serve repeat queries from the memo (same backing slice).
func TestGraphRegionsWithinCached(t *testing.T) {
	g := MustGridTiling(7, 7)
	gr := NewGraph(g)
	center := g.RegionAt(3, 3)
	for d := 0; d <= 4; d++ {
		want := gr.RegionsWithin(center, d)
		got := gr.RegionsWithinCached(center, d)
		if len(got) != len(want) {
			t.Fatalf("d=%d: cached returned %d regions, want %d", d, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("d=%d: cached[%d] = %v, want %v", d, i, got[i], want[i])
			}
		}
		again := gr.RegionsWithinCached(center, d)
		if len(again) > 0 && &again[0] != &got[0] {
			t.Errorf("d=%d: repeat query did not reuse the memoized slice", d)
		}
	}
}
