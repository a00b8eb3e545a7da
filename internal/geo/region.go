// Package geo models the deployment space of the network: a fixed, closed,
// bounded region of the plane divided into known connected regions with
// unique, ordered identifiers (paper §II-A).
//
// The package provides the region tiling abstraction, the nbr (neighbor)
// relation induced by shared boundary points, hop distances in the neighbor
// graph, and the network diameter D. Everything above this layer (the
// cluster hierarchy, the VSA layer, the tracker) speaks only in terms of
// region identifiers and the neighbor graph.
package geo

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
)

// RegionID identifies a region of the tiling. Identifiers are drawn from an
// ordered set (paper §II-A); the natural ordering of the integer values is
// the region order, used e.g. to break ties for shared boundary points.
type RegionID int

// NoRegion is the sentinel for "no region" (an evader not yet placed, a
// client outside the deployment space, and similar).
const NoRegion RegionID = -1

// String returns a compact textual form of the identifier.
func (r RegionID) String() string {
	if r == NoRegion {
		return "r⊥"
	}
	return "r" + strconv.Itoa(int(r))
}

// Valid reports whether the identifier denotes an actual region (it does not
// check membership in any particular tiling).
func (r RegionID) Valid() bool { return r >= 0 }

// Tiling describes a division of the deployment space into regions together
// with the nbr relation. Implementations must be immutable after
// construction: all methods must be safe for concurrent use.
type Tiling interface {
	// NumRegions returns the number of regions |U|. Region identifiers are
	// the dense range [0, NumRegions).
	NumRegions() int

	// Neighbors returns the regions sharing boundary points with u, in
	// ascending identifier order. The result must not be modified.
	Neighbors(u RegionID) []RegionID

	// Contains reports whether u is a region of this tiling.
	Contains(u RegionID) bool
}

// AreNeighbors reports whether u and v are distinct regions related by nbr.
func AreNeighbors(t Tiling, u, v RegionID) bool {
	if u == v {
		return false
	}
	for _, w := range t.Neighbors(u) {
		if w == v {
			return true
		}
	}
	return false
}

// Validate checks structural sanity of a tiling: region ids are dense,
// the neighbor relation is irreflexive and symmetric, and the neighbor
// graph is connected (the deployment space is a connected region, §II-A).
func Validate(t Tiling) error {
	n := t.NumRegions()
	if n <= 0 {
		return fmt.Errorf("geo: tiling has %d regions, want at least 1", n)
	}
	for u := RegionID(0); int(u) < n; u++ {
		if !t.Contains(u) {
			return fmt.Errorf("geo: region %v missing from tiling", u)
		}
		for _, v := range t.Neighbors(u) {
			if v == u {
				return fmt.Errorf("geo: region %v is its own neighbor", u)
			}
			if !t.Contains(v) || int(v) >= n {
				return fmt.Errorf("geo: region %v has non-region neighbor %v", u, v)
			}
			if !AreNeighbors(t, v, u) {
				return fmt.Errorf("geo: nbr not symmetric between %v and %v", u, v)
			}
		}
	}
	if t.Contains(RegionID(n)) {
		return fmt.Errorf("geo: tiling claims to contain out-of-range region %d", n)
	}
	// Connectivity is read off the neighbor lists, whatever the tiling says
	// about its own metric: wrapped, it has only its Tiling methods to show
	// and the Graph runs a BFS.
	g := NewGraph(struct{ Tiling }{t})
	for u := RegionID(0); int(u) < n; u++ {
		if g.Distance(u, 0) < 0 {
			return fmt.Errorf("geo: region %v unreachable from region 0; tiling not connected", u)
		}
	}
	return nil
}

// AdjacencyTiling is a tiling defined directly by its neighbor lists —
// the fully general deployment space of §II-A (any connected division of
// the plane induces such a graph). Construct with NewAdjacencyTiling.
type AdjacencyTiling struct {
	neighbors [][]RegionID
}

var _ Tiling = (*AdjacencyTiling)(nil)

// NewAdjacencyTiling builds a tiling from explicit neighbor lists:
// neighbors[u] lists the regions sharing boundary points with region u.
// The relation must be irreflexive and symmetric and the graph connected;
// lists are normalized to ascending order.
func NewAdjacencyTiling(neighbors [][]RegionID) (*AdjacencyTiling, error) {
	t := &AdjacencyTiling{neighbors: make([][]RegionID, len(neighbors))}
	for u, nbrs := range neighbors {
		t.neighbors[u] = append([]RegionID(nil), nbrs...)
		sort.Slice(t.neighbors[u], func(i, j int) bool { return t.neighbors[u][i] < t.neighbors[u][j] })
	}
	if err := Validate(t); err != nil {
		return nil, err
	}
	return t, nil
}

// NumRegions returns the number of regions.
func (t *AdjacencyTiling) NumRegions() int { return len(t.neighbors) }

// Neighbors returns the neighbor list of u in ascending order.
func (t *AdjacencyTiling) Neighbors(u RegionID) []RegionID {
	if !t.Contains(u) {
		return nil
	}
	return t.neighbors[u]
}

// Contains reports whether u is a region of the tiling.
func (t *AdjacencyTiling) Contains(u RegionID) bool {
	return u >= 0 && int(u) < len(t.neighbors)
}

// Thin returns a sparser copy of a tiling: it keeps a deterministic
// spanning structure (the BFS tree from region 0) plus each further edge
// with probability keep, drawn from rng. The result stays connected —
// a convenient generator of irregular deployment spaces for generality
// tests.
func Thin(t Tiling, keep float64, rng *rand.Rand) (*AdjacencyTiling, error) {
	n := t.NumRegions()
	adj := make([][]RegionID, n)
	add := func(u, v RegionID) {
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	inTree := make(map[[2]RegionID]bool)
	// BFS tree from region 0.
	seen := make([]bool, n)
	seen[0] = true
	queue := []RegionID{0}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range t.Neighbors(u) {
			if seen[v] {
				continue
			}
			seen[v] = true
			add(u, v)
			inTree[edgeKey(u, v)] = true
			queue = append(queue, v)
		}
	}
	// Remaining edges kept with the given probability.
	for u := RegionID(0); int(u) < n; u++ {
		for _, v := range t.Neighbors(u) {
			if v <= u || inTree[edgeKey(u, v)] {
				continue
			}
			if rng.Float64() < keep {
				add(u, v)
			}
		}
	}
	return NewAdjacencyTiling(adj)
}

func edgeKey(u, v RegionID) [2]RegionID {
	if u > v {
		u, v = v, u
	}
	return [2]RegionID{u, v}
}
