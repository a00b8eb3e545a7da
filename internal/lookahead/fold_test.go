package lookahead

import (
	"fmt"
	"math/rand"
	"testing"

	"vinestalk/internal/evader"
	"vinestalk/internal/geo"
	"vinestalk/internal/hier"
)

// foldWorlds are the hierarchies the fold is checked on: grids of base 2
// and 3, and landmark decompositions.
func foldWorlds(t testing.TB) map[string]*hier.Hierarchy {
	t.Helper()
	worlds := map[string]*hier.Hierarchy{
		"grid 8 r=2":  hier.MustGrid(geo.MustGridTiling(8, 8), 2),
		"grid 16 r=2": hier.MustGrid(geo.MustGridTiling(16, 16), 2),
		"grid 9 r=3":  hier.MustGrid(geo.MustGridTiling(9, 9), 3),
		"grid 12 r=3": hier.MustGrid(geo.MustGridTiling(12, 12), 3),
	}
	for _, side := range []int{8, 16} {
		h, err := hier.NewLandmark(geo.MustGridTiling(side, side), 2)
		if err != nil {
			t.Fatal(err)
		}
		worlds[fmt.Sprintf("landmark %d", side)] = h
	}
	return worlds
}

// Property: the fold an evader's observer feeds equals AtomicMoveSeq, the
// reference model, over the path the evader walked, after every move of a
// random walk.
func TestFoldEqualsReplayAfterEveryMove(t *testing.T) {
	for name, h := range foldWorlds(t) {
		tl := h.Tiling()
		rng := rand.New(rand.NewSource(int64(len(name))))
		for walk := 0; walk < 4; walk++ {
			start := geo.RegionID(rng.Intn(tl.NumRegions()))
			ev, err := evader.NewPlaced(tl, start, func(geo.RegionID, evader.Event) {})
			if err != nil {
				t.Fatal(err)
			}
			fold := Follow(h, ev)
			path := recordPath(ev)
			for step := 0; step < 60; step++ {
				nbrs := tl.Neighbors(ev.Region())
				if err := ev.MoveTo(nbrs[rng.Intn(len(nbrs))]); err != nil {
					t.Fatal(err)
				}
				got, err := fold.State()
				if err != nil {
					t.Fatalf("%s walk %d step %d: %v", name, walk, step, err)
				}
				want, err := AtomicMoveSeq(h, *path)
				if err != nil {
					t.Fatal(err)
				}
				if diff := Equal(got, want); diff != "" {
					t.Fatalf("%s walk %d step %d: fold differs from the replay of %v: %s", name, walk, step, *path, diff)
				}
			}
		}
	}
}

// A fold told of a move that does not leave its region, or that jumps,
// stops, and says so from then on.
func TestFoldRefusesAMoveItCannotApply(t *testing.T) {
	h := grid(t, 8, 2)
	f := newFold(h, 0)
	f.Move(0, 1)
	if _, err := f.State(); err != nil {
		t.Fatal(err)
	}
	f.Move(5, 6)
	if _, err := f.State(); err == nil {
		t.Fatal("a move from a region the fold is not at was applied")
	}
	f.Move(1, 2)
	if _, err := f.State(); err == nil {
		t.Fatal("a stopped fold resumed")
	}
	g := newFold(h, 0)
	g.Move(0, 63)
	if _, err := g.State(); err == nil {
		t.Fatal("a jump to a non-neighbour was applied")
	}
}

// One fold step allocates nothing: the observer costs walk64's hot path
// the clusters a move touches and no garbage.
func TestSpecFoldStepAllocatesNothing(t *testing.T) {
	h := grid(t, 64, 2)
	f := newFold(h, 0)
	at, other := geo.RegionID(0), geo.RegionID(1)
	if allocs := testing.AllocsPerRun(1000, func() {
		f.Move(at, other)
		at, other = other, at
	}); allocs != 0 {
		t.Errorf("a fold step allocates %v times, want 0", allocs)
	}
	if _, err := f.State(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSpecFold is the price of the Theorem 4.8 reference per move on
// walk64's world (a 64×64 grid, base 2): ns per fold step along a random
// walk that returns to its start, so it can be replayed without end.
func BenchmarkSpecFold(b *testing.B) {
	h := hier.MustGrid(geo.MustGridTiling(64, 64), 2)
	tl := h.Tiling()
	rng := rand.New(rand.NewSource(1))
	out := []geo.RegionID{geo.RegionID(tl.NumRegions()/2 + 32)}
	for len(out) < 4096 {
		nbrs := tl.Neighbors(out[len(out)-1])
		out = append(out, nbrs[rng.Intn(len(nbrs))])
	}
	loop := append([]geo.RegionID(nil), out...)
	for i := len(out) - 2; i >= 0; i-- {
		loop = append(loop, out[i])
	}
	loop = loop[:len(loop)-1] // the walk is back at loop[0]
	f := newFold(h, loop[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(loop)
		f.Move(loop[j], loop[(j+1)%len(loop)])
	}
	b.StopTimer()
	if _, err := f.State(); err != nil {
		b.Fatal(err)
	}
}
