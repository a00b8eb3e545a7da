package geo_test

import (
	"fmt"
	"math/rand"
	"testing"

	"vinestalk/internal/geo"
	"vinestalk/internal/hier"
)

// refBFS is the reference model of Graph: the single-source BFS that filled
// the dist and next tables Graph used to hold, kept verbatim. Distances and
// first hops from u to every region, exploring neighbors in Neighbors order.
func refBFS(t geo.Tiling, u geo.RegionID) (dist []int32, next []geo.RegionID) {
	n := t.NumRegions()
	dist = make([]int32, n)
	next = make([]geo.RegionID, n)
	for i := range dist {
		dist[i] = -1
		next[i] = geo.NoRegion
	}
	dist[u] = 0
	next[u] = u
	queue := make([]geo.RegionID, 0, n)
	queue = append(queue, u)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range t.Neighbors(v) {
			if dist[w] >= 0 {
				continue
			}
			dist[w] = dist[v] + 1
			if v == u {
				next[w] = w // first hop toward w is w itself
			} else {
				next[w] = next[v]
			}
			queue = append(queue, w)
		}
	}
	return dist, next
}

// checkAgainstModel compares gr with the reference BFS over t on every
// ordered pair of regions: Distance, NextHop, Path (length, endpoints, every
// step the model's next hop and therefore one closer) and Diameter.
func checkAgainstModel(t geo.Tiling, gr *geo.Graph) error {
	n := t.NumRegions()
	dist := make([][]int32, n)
	next := make([][]geo.RegionID, n)
	diam := 0
	for u := 0; u < n; u++ {
		dist[u], next[u] = refBFS(t, geo.RegionID(u))
		for _, d := range dist[u] {
			diam = max(diam, int(d))
		}
	}
	for u := geo.RegionID(0); int(u) < n; u++ {
		for v := geo.RegionID(0); int(v) < n; v++ {
			if got, want := gr.Distance(u, v), int(dist[u][v]); got != want {
				return fmt.Errorf("Distance(%v, %v) = %d, model %d", u, v, got, want)
			}
			if got, want := gr.NextHop(u, v), next[u][v]; got != want {
				return fmt.Errorf("NextHop(%v, %v) = %v, model %v", u, v, got, want)
			}
			path := gr.Path(u, v)
			if len(path) != int(dist[u][v])+1 || path[0] != u || path[len(path)-1] != v {
				return fmt.Errorf("Path(%v, %v) = %v, model distance %d", u, v, path, dist[u][v])
			}
			for i := 0; i+1 < len(path); i++ {
				if path[i+1] != next[path[i]][v] || dist[path[i+1]][v] != dist[path[i]][v]-1 {
					return fmt.Errorf("Path(%v, %v) = %v: step %d is not the model's", u, v, path, i)
				}
			}
		}
	}
	if got := gr.Diameter(); got != diam {
		return fmt.Errorf("Diameter = %d, model %d", got, diam)
	}
	return nil
}

// plainTiling hides whatever else a tiling implements (a grid's Metric), so a
// Graph over it has only the neighbor lists to go by.
type plainTiling struct{ geo.Tiling }

func grid(tb testing.TB, w, h int, diagonal bool) *geo.GridTiling {
	tb.Helper()
	mk := geo.NewGridTiling4
	if diagonal {
		mk = geo.NewGridTiling
	}
	t, err := mk(w, h)
	if err != nil {
		tb.Fatal(err)
	}
	return t
}

// randomTiling draws a connected graph on 2–40 regions: a random spanning
// tree plus random chords.
func randomTiling(tb testing.TB, rng *rand.Rand) *geo.AdjacencyTiling {
	tb.Helper()
	n := 2 + rng.Intn(39)
	adj := make([][]geo.RegionID, n)
	linked := make(map[[2]int]bool)
	link := func(a, b int) {
		if a > b {
			a, b = b, a
		}
		if a == b || linked[[2]int{a, b}] {
			return
		}
		linked[[2]int{a, b}] = true
		adj[a] = append(adj[a], geo.RegionID(b))
		adj[b] = append(adj[b], geo.RegionID(a))
	}
	for v := 1; v < n; v++ {
		link(v, rng.Intn(v))
	}
	for chords := rng.Intn(2 * n); chords > 0; chords-- {
		link(rng.Intn(n), rng.Intn(n))
	}
	t, err := geo.NewAdjacencyTiling(adj)
	if err != nil {
		tb.Fatal(err)
	}
	return t
}

// Every answer a Graph gives equals the reference BFS's, for every pair of
// regions: on grids (answered by the tiling's closed forms), on the same
// grids with the metric hidden and on arbitrary adjacency tilings (answered
// by scanning lazily built distance rows).
func TestGraphMatchesReferenceBFS(t *testing.T) {
	check := func(name string, tl geo.Tiling) {
		t.Helper()
		if err := checkAgainstModel(tl, geo.NewGraph(tl)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for _, diagonal := range []bool{true, false} {
		for w := 1; w <= 9; w++ {
			for h := 1; h <= 9; h++ {
				check(fmt.Sprintf("%dx%d diagonal=%v", w, h, diagonal), grid(t, w, h, diagonal))
			}
		}
		check(fmt.Sprintf("17x13 diagonal=%v", diagonal), grid(t, 17, 13, diagonal))
		check(fmt.Sprintf("7x6 diagonal=%v, metric hidden", diagonal), plainTiling{grid(t, 7, 6, diagonal)})
	}
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 50; i++ {
		check(fmt.Sprintf("random tiling %d", i), randomTiling(t, rng))
	}

	// The graph a landmark hierarchy builds over an irregular tiling.
	thin, err := geo.Thin(geo.MustGridTiling(9, 7), 0.3, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	h, err := hier.NewLandmark(thin, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkAgainstModel(h.Tiling(), h.Graph()); err != nil {
		t.Fatalf("landmark hierarchy's graph: %v", err)
	}
}

// swappedRanks is a grid whose FirstHop prefers its second-listed neighbor
// to its first: a closed form with two neighbor ranks exchanged.
type swappedRanks struct{ *geo.GridTiling }

func (s swappedRanks) FirstHop(u, v geo.RegionID) geo.RegionID {
	if u == v {
		return u
	}
	nbrs := append([]geo.RegionID(nil), s.Neighbors(u)...)
	if len(nbrs) > 1 {
		nbrs[0], nbrs[1] = nbrs[1], nbrs[0]
	}
	for _, f := range nbrs {
		if s.HopDistance(f, v) == s.HopDistance(u, v)-1 {
			return f
		}
	}
	return geo.NoRegion
}

// The model check is sharp enough to tell neighbor ranks apart: a first hop
// that is on a shortest path but not the first such neighbor fails it.
func TestReferenceModelRejectsSwappedRanks(t *testing.T) {
	for _, diagonal := range []bool{true, false} {
		tl := swappedRanks{grid(t, 5, 5, diagonal)}
		if _, ok := geo.Tiling(tl).(geo.Metric); !ok {
			t.Fatal("mutant does not implement Metric; the check below would not see it")
		}
		if err := checkAgainstModel(tl, geo.NewGraph(tl)); err == nil {
			t.Errorf("diagonal=%v: a FirstHop with two ranks swapped passed the model check", diagonal)
		}
	}
}

// The hop-by-hop questions allocate nothing: never on a grid, and on an
// adjacency tiling once the destination's row exists.
func TestGraphQueriesAllocateNothing(t *testing.T) {
	gridGraph := geo.NewGraph(geo.MustGridTiling(16, 16))
	adjGraph := geo.NewGraph(plainTiling{geo.MustGridTiling(16, 16)})
	adjGraph.Distance(0, 255) // warm-up: builds 255's row
	for name, gr := range map[string]*geo.Graph{"grid": gridGraph, "adjacency": adjGraph} {
		if got := testing.AllocsPerRun(100, func() {
			for cur := geo.RegionID(0); cur != 255; cur = gr.NextHop(cur, 255) {
				if gr.Distance(cur, 255) < 0 {
					t.Fatal("unreachable")
				}
			}
		}); got != 0 {
			t.Errorf("%s: a routed walk allocated %v times, want 0", name, got)
		}
	}
}
