package geo

import (
	"fmt"
	"math"
)

// GridTiling is the canonical tiling used throughout the paper's examples: a
// w×h board of unit-square regions. Squares sharing an edge or touching
// diagonally at a corner are neighbors (paper §II-B, grid hierarchy
// example), giving interior regions eight neighbors.
type GridTiling struct {
	w, h      int
	diagonal  bool
	neighbors [][]RegionID
}

var _ Tiling = (*GridTiling)(nil)

// NewGridTiling constructs a w×h grid tiling with the paper's neighbor
// rule (edge- and corner-sharing squares are neighbors). Both dimensions
// must be positive.
func NewGridTiling(w, h int) (*GridTiling, error) {
	return newGridTiling(w, h, true)
}

// NewGridTiling4 constructs a w×h grid tiling under a von Neumann
// (edge-sharing only) neighbor rule. The paper's grid hierarchy example
// *requires* the diagonal rule: with 4-neighborhoods, square-block
// clusterings violate the proximity requirement of §II-B (a region
// diagonal to a block corner is two hops away yet belongs to a
// non-neighboring cluster), which the hier validators detect. This
// variant exists to demonstrate that boundary of the model.
func NewGridTiling4(w, h int) (*GridTiling, error) {
	return newGridTiling(w, h, false)
}

func newGridTiling(w, h int, diagonal bool) (*GridTiling, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("geo: grid dimensions %dx%d must be positive", w, h)
	}
	if w > math.MaxInt32/h {
		return nil, fmt.Errorf("geo: grid %dx%d has more than 2^31 regions", w, h)
	}
	g := &GridTiling{
		w:         w,
		h:         h,
		diagonal:  diagonal,
		neighbors: make([][]RegionID, w*h),
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			id := g.RegionAt(x, y)
			nbrs := make([]RegionID, 0, 8)
			// Ascending id order: scan dy then dx in increasing order.
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					if dx == 0 && dy == 0 {
						continue
					}
					if !diagonal && dx != 0 && dy != 0 {
						continue
					}
					nx, ny := x+dx, y+dy
					if nx < 0 || nx >= w || ny < 0 || ny >= h {
						continue
					}
					nbrs = append(nbrs, g.RegionAt(nx, ny))
				}
			}
			g.neighbors[id] = nbrs
		}
	}
	return g, nil
}

// Diagonal reports whether corner-sharing squares are neighbors (the
// paper's rule) or only edge-sharing ones.
func (g *GridTiling) Diagonal() bool { return g.diagonal }

// MustGridTiling is NewGridTiling that panics on error; for tests and
// examples with constant dimensions.
func MustGridTiling(w, h int) *GridTiling {
	g, err := NewGridTiling(w, h)
	if err != nil {
		panic(err)
	}
	return g
}

// Width returns the number of columns.
func (g *GridTiling) Width() int { return g.w }

// Height returns the number of rows.
func (g *GridTiling) Height() int { return g.h }

// NumRegions returns w*h.
func (g *GridTiling) NumRegions() int { return g.w * g.h }

// RegionAt returns the region at grid coordinate (x, y).
// Coordinates outside the grid yield NoRegion.
func (g *GridTiling) RegionAt(x, y int) RegionID {
	if x < 0 || x >= g.w || y < 0 || y >= g.h {
		return NoRegion
	}
	return RegionID(y*g.w + x)
}

// Coord returns the grid coordinate of region u.
func (g *GridTiling) Coord(u RegionID) (x, y int) {
	return int(u) % g.w, int(u) / g.w
}

// Neighbors returns the up-to-eight grid neighbors of u in ascending order.
func (g *GridTiling) Neighbors(u RegionID) []RegionID {
	if !g.Contains(u) {
		return nil
	}
	return g.neighbors[u]
}

// Contains reports whether u is a region of the grid.
func (g *GridTiling) Contains(u RegionID) bool {
	return u >= 0 && int(u) < g.w*g.h
}

// ChebyshevDistance returns the L∞ distance between two regions' grid
// coordinates. On an 8-neighbor grid this equals the hop distance in the
// neighbor graph, which tests exploit as an independent oracle.
func (g *GridTiling) ChebyshevDistance(u, v RegionID) int {
	ux, uy := g.xy(u)
	vx, vy := g.xy(v)
	return max(abs(vx-ux), abs(vy-uy))
}

var _ Metric = (*GridTiling)(nil)

// HopDistance implements Metric: Chebyshev distance under the paper's
// 8-neighbor rule, Manhattan distance under the 4-neighbor rule.
func (g *GridTiling) HopDistance(u, v RegionID) int {
	if g.diagonal {
		return g.ChebyshevDistance(u, v)
	}
	ux, uy := g.xy(u)
	vx, vy := g.xy(v)
	return abs(vx-ux) + abs(vy-uy)
}

// FirstHop implements Metric. Neighbors lists a square's neighbors row by
// row (north-west first, south-east last), so among the steps that bring u
// one hop closer to v the first is the one furthest north, then furthest
// west.
func (g *GridTiling) FirstHop(u, v RegionID) RegionID {
	ux, uy := g.xy(u)
	vx, vy := g.xy(v)
	dx, dy := vx-ux, vy-uy
	sx, sy := sgn(dx), sgn(dy)
	if !g.diagonal {
		// Every step along an axis that still has ground to cover is one hop
		// closer; the order is north, west, east, south.
		switch {
		case dy < 0:
			sx = 0
		case dx != 0:
			sy = 0
		}
		return u + RegionID(sy*g.w+sx)
	}
	// The long axis must shrink; the short one may move either way or stay,
	// as long as what is left of it still fits in one fewer hops — so it steps
	// north (resp. west) whenever that fits and the grid has such a row
	// (column), and stays put otherwise. On the diagonal both axes must shrink.
	switch ax, ay := abs(dx), abs(dy); {
	case ax > ay:
		sy = 0
		if abs(dy+1) < ax && uy > 0 {
			sy = -1
		}
	case ay > ax:
		sx = 0
		if abs(dx+1) < ay && ux > 0 {
			sx = -1
		}
	}
	return u + RegionID(sy*g.w+sx)
}

// xy is Coord for a region of the grid, on the hop-by-hop path: region ids
// fit 32 bits (newGridTiling checked), and a 32-bit unsigned divide is the
// cheapest the hardware has.
func (g *GridTiling) xy(u RegionID) (x, y int) {
	w := uint32(g.w)
	q := uint32(u) / w
	return int(uint32(u) - q*w), int(q)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func sgn(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}
