package geo

// Partition assigns every region of a grid tiling to one of k spatial
// shards: the home partition of the parallel tracker (internal/core). The
// assignment is deterministic in (tiling, k).
//
// The grid is split into horizontal row bands — the minimum-boundary
// contiguous split for row-major identifiers, and the one whose shard of a
// region is computable from its row alone. Row y of an h-row grid lands on
// band ⌊y·k/h⌋, so bands differ in height by at most one row; on a grid
// with fewer rows than k some bands are empty (a 4-row grid at k = 8 uses
// bands 0, 2, 4, 6).
type Partition struct {
	k  int
	of []int32 // region id -> shard index
}

// NewPartition partitions g into k row bands. k is clamped to
// [1, NumRegions]; k <= 1 yields the trivial single-shard partition.
func NewPartition(g *GridTiling, k int) *Partition {
	n := g.NumRegions()
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	p := &Partition{k: k, of: make([]int32, n)}
	w, h := g.Width(), g.Height()
	for y := 0; y < h; y++ {
		s := int32(y * k / h)
		row := p.of[y*w : (y+1)*w]
		for x := range row {
			row[x] = s
		}
	}
	return p
}

// K returns the number of shards.
func (p *Partition) K() int { return p.k }

// ShardOf returns the shard owning region u. Out-of-range ids (including
// NoRegion) map to shard 0 so callers can route "unplaced" traffic without
// guarding.
func (p *Partition) ShardOf(u RegionID) int {
	if int(u) < 0 || int(u) >= len(p.of) {
		return 0
	}
	return int(p.of[u])
}
