package lookahead

import (
	"math/rand"
	"testing"
	"testing/quick"

	"vinestalk/internal/geo"
	"vinestalk/internal/hier"
)

// Property: lookAhead is idempotent — the "future state" has no pending
// updates left, so applying it again changes nothing. Checked on captures
// of a live system at random mid-flight points.
func TestLookAheadIdempotentMidFlight(t *testing.T) {
	s := newStack(t, 8, 2, 0, 17)
	s.settle(t)
	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 10; step++ {
		nbrs := s.h.Tiling().Neighbors(s.ev.Region())
		if err := s.ev.MoveTo(nbrs[rng.Intn(len(nbrs))]); err != nil {
			t.Fatal(err)
		}
		// Stop at a random number of events into the move's updates.
		stopAfter := rng.Intn(40)
		for i := 0; i < stopAfter && s.k.Step(); i++ {
		}
		once := LookAhead(Capture(s.net))
		twice := LookAhead(once)
		if diff := Equal(once, twice); diff != "" {
			t.Fatalf("step %d: lookAhead not idempotent: %s", step, diff)
		}
		s.settle(t)
	}
}

// Property: atomicMove maps consistent states to consistent states for
// arbitrary random walks on arbitrary small grids.
func TestAtomicMovePreservesConsistencyQuick(t *testing.T) {
	f := func(sideSeed, rSeed, startSeed uint8, walkSeed int64) bool {
		side := 4 + int(sideSeed)%6 // 4..9
		r := 2 + int(rSeed)%2       // 2..3
		h := hier.MustGrid(geo.MustGridTiling(side, side), r)
		tl := h.Tiling()
		start := geo.RegionID(int(startSeed) % tl.NumRegions())
		s := Init(h, start)
		if err := s.IsConsistent(start); err != nil {
			t.Log(err)
			return false
		}
		rng := rand.New(rand.NewSource(walkSeed))
		cur := start
		trail := []geo.RegionID{start}
		for i := 0; i < 12; i++ {
			nbrs := tl.Neighbors(cur)
			next := nbrs[rng.Intn(len(nbrs))]
			out, err := AtomicMove(s, cur, next)
			if err != nil {
				t.Log(err)
				return false
			}
			if err := out.IsConsistent(next); err != nil {
				t.Logf("side=%d r=%d move %v->%v: %v", side, r, cur, next, err)
				return false
			}
			s, cur = out, next
			trail = append(trail, next)
		}
		assertFoldEqualsSteps(t, h, trail, s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: Init's tracking path is a vertical growth of length MAX+1
// from any start region on any grid.
func TestInitShapeQuick(t *testing.T) {
	f := func(sideSeed, startSeed uint8) bool {
		side := 2 + int(sideSeed)%9 // 2..10
		h := hier.MustGrid(geo.MustGridTiling(side, side), 2)
		start := geo.RegionID(int(startSeed) % h.Tiling().NumRegions())
		s := Init(h, start)
		path, err := s.TrackingPath()
		if err != nil {
			t.Log(err)
			return false
		}
		if len(path) != h.MaxLevel()+1 {
			return false
		}
		for _, c := range path[1:] {
			if s.P[c] != h.Parent(c) {
				return false
			}
		}
		return s.IsConsistent(start) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: the tracking path never exceeds the legal length bound of
// MAX+1 levels plus one lateral per level, on random atomic walks.
func TestPathLengthBoundQuick(t *testing.T) {
	h := hier.MustGrid(geo.MustGridTiling(8, 8), 2)
	tl := h.Tiling()
	f := func(walkSeed int64, startSeed uint8) bool {
		start := geo.RegionID(int(startSeed) % tl.NumRegions())
		s := Init(h, start)
		rng := rand.New(rand.NewSource(walkSeed))
		cur := start
		for i := 0; i < 20; i++ {
			nbrs := tl.Neighbors(cur)
			next := nbrs[rng.Intn(len(nbrs))]
			out, err := AtomicMove(s, cur, next)
			if err != nil {
				return false
			}
			path, err := out.TrackingPath()
			if err != nil {
				return false
			}
			if len(path) > 2*(h.MaxLevel()+1) {
				t.Logf("path length %d exceeds bound", len(path))
				return false
			}
			s, cur = out, next
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
