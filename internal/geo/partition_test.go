package geo

import "testing"

// Every region must land on exactly one shard, shards must be balanced to
// within one row, and the union must cover the tiling.
func TestPartitionBalancedCover(t *testing.T) {
	g := MustGridTiling(16, 16)
	for _, k := range []int{1, 2, 3, 4, 8, 16} {
		p := NewPartition(g, k)
		if p.K() != k {
			t.Fatalf("k=%d: got K()=%d", k, p.K())
		}
		sizes := make([]int, k)
		for u := 0; u < g.NumRegions(); u++ {
			sizes[p.ShardOf(RegionID(u))]++
		}
		total, min, max := 0, g.NumRegions(), 0
		for _, s := range sizes {
			total += s
			if s < min {
				min = s
			}
			if s > max {
				max = s
			}
		}
		if total != g.NumRegions() {
			t.Fatalf("k=%d: sizes sum to %d, want %d", k, total, g.NumRegions())
		}
		if min == 0 {
			t.Fatalf("k=%d: empty shard (sizes %v)", k, sizes)
		}
		// Row bands differ by at most one row = Width regions.
		if max-min > g.Width() {
			t.Fatalf("k=%d: imbalance %d > one row (%d); sizes %v", k, max-min, g.Width(), sizes)
		}
	}
}

// Grid partitions are row bands: the shard of a region depends only on its
// row, and shard indices are non-decreasing in y.
func TestPartitionGridRowBands(t *testing.T) {
	g := MustGridTiling(7, 13)
	p := NewPartition(g, 4)
	prev := 0
	for y := 0; y < g.Height(); y++ {
		s := p.ShardOf(g.RegionAt(0, y))
		for x := 1; x < g.Width(); x++ {
			if got := p.ShardOf(g.RegionAt(x, y)); got != s {
				t.Fatalf("row %d not on one shard: x=0 -> %d, x=%d -> %d", y, s, x, got)
			}
		}
		if s < prev {
			t.Fatalf("shard index decreased at row %d: %d -> %d", y, prev, s)
		}
		prev = s
	}
}

// k is clamped to [1, NumRegions]: k > n gives K() = n; k <= 0 gives one shard.
func TestPartitionClamping(t *testing.T) {
	g := MustGridTiling(3, 3)
	if p := NewPartition(g, 100); p.K() != 9 {
		t.Fatalf("k=100 on 9 regions: got K()=%d, want 9", p.K())
	}
	if p := NewPartition(g, 0); p.K() != 1 {
		t.Fatalf("k=0: got K()=%d, want 1", p.K())
	}
	if p := NewPartition(g, -3); p.K() != 1 {
		t.Fatalf("k=-3: got K()=%d, want 1", p.K())
	}
	p := NewPartition(g, 4)
	if got := p.ShardOf(NoRegion); got != 0 {
		t.Fatalf("ShardOf(NoRegion) = %d, want 0", got)
	}
	if got := p.ShardOf(RegionID(99)); got != 0 {
		t.Fatalf("ShardOf(out of range) = %d, want 0", got)
	}
}

// The assignment is a pure function of (tiling, k).
func TestPartitionDeterministic(t *testing.T) {
	g := MustGridTiling(9, 11)
	a := NewPartition(g, 6)
	b := NewPartition(g, 6)
	for u := 0; u < g.NumRegions(); u++ {
		if a.ShardOf(RegionID(u)) != b.ShardOf(RegionID(u)) {
			t.Fatalf("partition not deterministic at region %d", u)
		}
	}
}
