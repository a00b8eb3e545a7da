package geo

// Metric is implemented by a tiling that can answer shortest-path questions
// about its own neighbor graph in O(1), without a table. Both methods are
// only ever asked about regions of the tiling.
type Metric interface {
	// HopDistance returns the hop distance between u and v in the neighbor
	// graph.
	HopDistance(u, v RegionID) int
	// FirstHop returns the first neighbor of u, in Neighbors order, that is
	// one hop closer to v than u is; FirstHop(u, u) = u. This is what
	// Graph.NextHop computes from distances alone, so a Graph may ask the
	// tiling instead.
	FirstHop(u, v RegionID) RegionID
}

// Graph answers shortest-path questions over a tiling's neighbor graph: hop
// distances between region pairs (the paper's notion of distance, §II-A),
// next hops (used by the DFS geocast substrate), and the network diameter D.
//
// The next hop from u toward v is the first neighbor of u, in Neighbors
// order, that is one hop closer to v — exactly the first hop a BFS from u
// exploring neighbors in that order assigns to v:
//
//   - layer 1 of that BFS is queued in neighbor order, i.e. sorted by the
//     rank of each region's first hop (itself);
//   - if layer k is queued sorted by first-hop rank, a layer-k+1 region is
//     discovered by its earliest-queued layer-k neighbor, so it inherits the
//     smallest-rank first hop among its predecessors, and layer k+1 is
//     queued in parent order, so it is sorted too;
//   - a neighbor f of u lies on a shortest path to w exactly when some
//     predecessor of w has f on a shortest path to it.
//
// So distances determine routes and no per-pair next-hop table exists.
//
// A tiling that implements Metric is asked directly and the Graph holds no
// per-pair state at all. For any other tiling, distances come from one BFS
// row per destination region, computed lazily and memoized; nbr is symmetric
// (Validate enforces it), so the row of v serves Distance(·, v) and
// NextHop(·, v) alike and the consecutive hops of one routed message probe
// one row. Such a Graph is safe for concurrent use only after Precompute;
// Diameter and RegionsWithinCached memoize on every Graph. The simulation
// kernel is single-threaded, which is how the rest of the repository uses it.
type Graph struct {
	t      Tiling
	n      int
	metric Metric    // the tiling itself when it implements Metric, else nil
	dist   [][]int32 // without a metric: dist[v][u], nil until v's BFS has run

	diameter      int // memoized Diameter; valid when diameterKnown
	diameterKnown bool
	within        map[withinKey][]RegionID // memoized RegionsWithinCached results
}

// withinKey identifies one memoized ball: all regions within d hops of u.
type withinKey struct {
	u RegionID
	d int
}

// NewGraph builds a Graph over tiling t.
func NewGraph(t Tiling) *Graph {
	g := &Graph{t: t, n: t.NumRegions()}
	if m, ok := t.(Metric); ok {
		g.metric = m
	} else {
		g.dist = make([][]int32, g.n)
	}
	return g
}

// Tiling returns the underlying tiling.
func (g *Graph) Tiling() Tiling { return g.t }

// contains is the tiling's Contains without the dynamic call, on the
// hop-by-hop path: a tiling's regions are the dense range [0, NumRegions).
func (g *Graph) contains(u RegionID) bool { return uint(u) < uint(g.n) }

// row returns the hop distances from v to every region (-1 where
// unreachable), running v's BFS on first use.
func (g *Graph) row(v RegionID) []int32 {
	if row := g.dist[v]; row != nil {
		return row
	}
	row := make([]int32, g.n)
	for i := range row {
		row[i] = -1
	}
	row[v] = 0
	queue := make([]RegionID, 0, g.n)
	queue = append(queue, v)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, w := range g.t.Neighbors(u) {
			if row[w] < 0 {
				row[w] = row[u] + 1
				queue = append(queue, w)
			}
		}
	}
	g.dist[v] = row
	return row
}

// Distance returns the hop distance between u and v in the neighbor graph,
// or -1 if either is outside the tiling or v is unreachable from u.
func (g *Graph) Distance(u, v RegionID) int {
	if !g.contains(u) || !g.contains(v) {
		return -1
	}
	if g.metric != nil {
		return g.metric.HopDistance(u, v)
	}
	return int(g.row(v)[u])
}

// NextHop returns the first region on a shortest path from u toward v: the
// first neighbor of u, in Neighbors order, one hop closer to v.
// NextHop(u, u) = u. It returns NoRegion if either region is outside the
// tiling or v is unreachable.
func (g *Graph) NextHop(u, v RegionID) RegionID {
	if !g.contains(u) || !g.contains(v) {
		return NoRegion
	}
	if g.metric != nil {
		return g.metric.FirstHop(u, v)
	}
	row := g.row(v)
	switch d := row[u]; {
	case d < 0:
		return NoRegion
	case d == 0:
		return u
	default:
		for _, f := range g.t.Neighbors(u) {
			if row[f] == d-1 {
				return f
			}
		}
		return NoRegion // unreachable: a region at distance d > 0 has a predecessor
	}
}

// Path returns a shortest path from u to v inclusive of both endpoints, or
// nil if v is unreachable from u.
func (g *Graph) Path(u, v RegionID) []RegionID {
	d := g.Distance(u, v)
	if d < 0 {
		return nil
	}
	path := make([]RegionID, 0, d+1)
	path = append(path, u)
	for cur := u; cur != v; {
		cur = g.NextHop(cur, v)
		if cur == NoRegion {
			return nil
		}
		path = append(path, cur)
	}
	return path
}

// Precompute runs every BFS a later Distance or NextHop could need, making
// them lookups. Over a tiling with a Metric there is nothing to compute.
func (g *Graph) Precompute() {
	if g.metric != nil {
		return
	}
	for v := 0; v < g.n; v++ {
		g.row(RegionID(v))
	}
}

// Diameter returns the network diameter D: the maximum hop distance between
// any two regions (paper §II-A). The tiling is immutable, so the all-pairs
// maximum is computed once and memoized.
func (g *Graph) Diameter() int {
	if g.diameterKnown {
		return g.diameter
	}
	diam := 0
	for v := RegionID(0); int(v) < g.n; v++ {
		for u := RegionID(0); u < v; u++ {
			if d := g.Distance(u, v); d > diam {
				diam = d
			}
		}
	}
	g.diameter = diam
	g.diameterKnown = true
	return diam
}

// RegionsWithin returns all regions at hop distance at most d from u, in
// ascending identifier order: none when u is outside the tiling.
func (g *Graph) RegionsWithin(u RegionID, d int) []RegionID {
	if !g.contains(u) {
		return nil
	}
	var out []RegionID
	for v := RegionID(0); int(v) < g.n; v++ {
		if dd := g.Distance(v, u); dd >= 0 && dd <= d {
			out = append(out, v)
		}
	}
	return out
}

// RegionsWithinCached is RegionsWithin with the result memoized per (u, d).
// Broadcast target lists are rebuilt from the same few balls over and over
// (flood rounds, vbcast neighborhoods); the tiling is immutable, so the
// ball never changes. The returned slice is shared across calls and must
// not be modified by the caller.
func (g *Graph) RegionsWithinCached(u RegionID, d int) []RegionID {
	if !g.contains(u) {
		return nil // nothing to memoize, and no entry per hostile id
	}
	key := withinKey{u: u, d: d}
	if out, ok := g.within[key]; ok {
		return out
	}
	out := g.RegionsWithin(u, d)
	if g.within == nil {
		g.within = make(map[withinKey][]RegionID)
	}
	g.within[key] = out
	return out
}
