package lookahead

import (
	"math/rand"
	"testing"

	"vinestalk/internal/geo"
	"vinestalk/internal/hier"
)

func grid(t *testing.T, side, r int) *hier.Hierarchy {
	t.Helper()
	return hier.MustGrid(geo.MustGridTiling(side, side), r)
}

func TestInitIsConsistent(t *testing.T) {
	h := grid(t, 8, 2)
	for _, u := range []geo.RegionID{0, 7, 36, 63} {
		s := Init(h, u)
		if err := s.IsConsistent(u); err != nil {
			t.Errorf("Init(%v) not consistent: %v", u, err)
		}
		path, err := s.TrackingPath()
		if err != nil {
			t.Fatalf("Init(%v): %v", u, err)
		}
		// Vertical growth: MAX+1 clusters, each p = hierarchy parent.
		if len(path) != h.MaxLevel()+1 {
			t.Errorf("Init(%v) path length %d, want %d", u, len(path), h.MaxLevel()+1)
		}
		for _, c := range path[1:] {
			if s.P[c] != h.Parent(c) {
				t.Errorf("Init(%v): %v.p = %v, want hierarchy parent", u, c, s.P[c])
			}
		}
	}
}

func TestAtomicMoveProducesConsistentState(t *testing.T) {
	h := grid(t, 8, 2)
	g := h.Tiling().(*geo.GridTiling)
	s := Init(h, g.RegionAt(0, 0))
	old := g.RegionAt(0, 0)
	for _, next := range []geo.RegionID{
		g.RegionAt(1, 0), g.RegionAt(2, 1), g.RegionAt(3, 2), g.RegionAt(4, 3),
	} {
		var err error
		s, err = AtomicMove(s, old, next)
		if err != nil {
			t.Fatal(err)
		}
		if cerr := s.IsConsistent(next); cerr != nil {
			t.Fatalf("after move to %v: %v", next, cerr)
		}
		old = next
	}
}

func TestAtomicMoveRejectsNonNeighbor(t *testing.T) {
	h := grid(t, 4, 2)
	s := Init(h, 0)
	if _, err := AtomicMove(s, 0, 15); err == nil {
		t.Fatal("AtomicMove accepted a non-neighbor relocation")
	}
}

func TestAtomicMoveSharedPrefixStructure(t *testing.T) {
	h := grid(t, 8, 2)
	g := h.Tiling().(*geo.GridTiling)
	start := g.RegionAt(0, 0)
	s := Init(h, start)
	oldPath, _ := s.TrackingPath()
	next := g.RegionAt(1, 0)
	moved, err := AtomicMove(s, start, next)
	if err != nil {
		t.Fatal(err)
	}
	newPath, err := moved.TrackingPath()
	if err != nil {
		t.Fatal(err)
	}
	// The paths share a prefix; the new suffix is disjoint from the old
	// suffix (atomicMove conditions 1-2).
	j := 0
	for j < len(oldPath) && j < len(newPath) && oldPath[j] == newPath[j] {
		j++
	}
	if j == 0 {
		t.Fatal("paths share no prefix (root must be common)")
	}
	oldSuffix := make(map[hier.ClusterID]bool)
	for _, c := range oldPath[j:] {
		oldSuffix[c] = true
	}
	for _, c := range newPath[j:] {
		if oldSuffix[c] {
			t.Errorf("cluster %v appears in both old and new suffixes", c)
		}
	}
}

func TestAtomicMoveBackAndForth(t *testing.T) {
	// The dithering workload at the spec level: oscillate across the
	// top-level boundary; every state must stay consistent and the path
	// must keep at most one lateral link per level.
	h := grid(t, 8, 2)
	g := h.Tiling().(*geo.GridTiling)
	a, b := g.RegionAt(3, 3), g.RegionAt(4, 4) // diagonal across the center
	s := Init(h, a)
	cur, other := a, b
	for i := 0; i < 10; i++ {
		var err error
		s, err = AtomicMove(s, cur, other)
		if err != nil {
			t.Fatal(err)
		}
		if cerr := s.IsConsistent(other); cerr != nil {
			t.Fatalf("oscillation %d: %v", i, cerr)
		}
		path, _ := s.TrackingPath()
		perLevel := make(map[int]int)
		for _, c := range path {
			if s.P[c] != hier.NoCluster && h.AreNbrs(c, s.P[c]) {
				perLevel[h.Level(c)]++
			}
		}
		for lvl, n := range perLevel {
			if n > 1 {
				t.Fatalf("oscillation %d: %d lateral links at level %d", i, n, lvl)
			}
		}
		cur, other = other, cur
	}
}

func TestAtomicMoveSeqRandomWalkConsistent(t *testing.T) {
	h := grid(t, 8, 2)
	tl := h.Tiling()
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		moves := []geo.RegionID{geo.RegionID(rng.Intn(tl.NumRegions()))}
		for i := 0; i < 30; i++ {
			nbrs := tl.Neighbors(moves[len(moves)-1])
			moves = append(moves, nbrs[rng.Intn(len(nbrs))])
		}
		s, err := AtomicMoveSeq(h, moves)
		if err != nil {
			t.Fatal(err)
		}
		if cerr := s.IsConsistent(moves[len(moves)-1]); cerr != nil {
			t.Fatalf("trial %d: %v", trial, cerr)
		}
	}
	if _, err := AtomicMoveSeq(h, nil); err == nil {
		t.Error("AtomicMoveSeq accepted an empty sequence")
	}
}

// AtomicMoveSeq folds in place: what it allocates is the one state Init
// builds, however long the trail (it used to clone the state per move).
func TestAtomicMoveSeqAllocsDoNotGrowWithMoves(t *testing.T) {
	h := grid(t, 16, 2)
	tl := h.Tiling()
	rng := rand.New(rand.NewSource(5))
	trail := []geo.RegionID{0}
	for len(trail) <= 2000 {
		nbrs := tl.Neighbors(trail[len(trail)-1])
		trail = append(trail, nbrs[rng.Intn(len(nbrs))])
	}
	allocs := func(moves []geo.RegionID) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := AtomicMoveSeq(h, moves); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(trail[:2]), allocs(trail)
	if long != short {
		t.Fatalf("AtomicMoveSeq allocates %.0f times over 1 move and %.0f over %d", short, long, len(trail)-1)
	}
}

func TestLookAheadOnConsistentStateIsIdentity(t *testing.T) {
	h := grid(t, 8, 2)
	s := Init(h, 27)
	out := LookAhead(s)
	if diff := Equal(s, out); diff != "" {
		t.Fatalf("lookAhead changed a consistent state: %s", diff)
	}
}

func TestCheckInvariantsOnSpecStates(t *testing.T) {
	h := grid(t, 8, 2)
	s := Init(h, 0)
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Fabricate a violation: two grow leaders.
	bad := s.Clone()
	c1 := h.Cluster(63, 0)
	c2 := h.Cluster(62, 0)
	bad.C[c1], bad.P[c1] = c1, hier.NoCluster
	bad.C[c2], bad.P[c2] = c2, hier.NoCluster
	if err := bad.CheckInvariants(); err == nil {
		t.Fatal("CheckInvariants accepted two concurrent grows")
	}
}

func TestEqualReportsDifferences(t *testing.T) {
	h := grid(t, 4, 2)
	a, b := Init(h, 0), Init(h, 0)
	if diff := Equal(a, b); diff != "" {
		t.Fatalf("identical states differ: %s", diff)
	}
	b.C[3] = 5
	if diff := Equal(a, b); diff == "" {
		t.Fatal("Equal missed a c difference")
	}
	c := Init(h, 0)
	c.Up[2] = 7
	if diff := Equal(a, c); diff == "" {
		t.Fatal("Equal missed an nbrptup difference")
	}
}
