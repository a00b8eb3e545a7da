package baseline

import (
	"testing"
	"time"

	"vinestalk/internal/geo"
	"vinestalk/internal/hier"
	"vinestalk/internal/sim"
)

const unit = 15 * time.Millisecond

func setup(t *testing.T, side int) (*sim.Kernel, *geo.GridTiling, *geo.Graph, *hier.Hierarchy) {
	t.Helper()
	k := sim.New(1)
	g := geo.MustGridTiling(side, side)
	return k, g, geo.NewGraph(g), hier.MustGrid(g, 2)
}

func TestRootPointerFindAndMove(t *testing.T) {
	k, g, gr, _ := setup(t, 8)
	home := g.RegionAt(4, 4)
	start := g.RegionAt(0, 0)
	r, err := NewRootPointer(k, gr, unit, home, start)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() != "rootptr" {
		t.Errorf("Name = %q", r.Name())
	}
	var found geo.RegionID = geo.NoRegion
	r.Find(g.RegionAt(7, 7), func(at geo.RegionID) { found = at })
	k.Run()
	if found != start {
		t.Fatalf("found at %v, want %v", found, start)
	}
	// Find work: origin->home + home->object.
	wantWork := int64(gr.Distance(g.RegionAt(7, 7), home) + gr.Distance(home, start))
	if got := r.Ledger().Work("proto/find"); got != wantWork {
		t.Errorf("find work = %d, want %d", got, wantWork)
	}

	// Every move costs ~distance-to-home regardless of step size.
	before := r.Ledger().Snapshot()
	r.Move(start, g.RegionAt(1, 0))
	k.Run()
	diff := r.Ledger().Snapshot().Sub(before)
	if got, want := diff.HopWork["proto/update"], int64(gr.Distance(g.RegionAt(1, 0), home)); got != want {
		t.Errorf("move work = %d, want %d", got, want)
	}
}

func TestRootPointerChasesStaleDirectory(t *testing.T) {
	k, g, gr, _ := setup(t, 8)
	home := g.RegionAt(0, 0)
	r, err := NewRootPointer(k, gr, unit, home, g.RegionAt(5, 5))
	if err != nil {
		t.Fatal(err)
	}
	var found geo.RegionID = geo.NoRegion
	r.Find(g.RegionAt(0, 1), func(at geo.RegionID) { found = at })
	// Move the object while the find is in flight: the directory answer
	// becomes stale, forcing a re-query.
	k.RunFor(unit)
	r.Move(g.RegionAt(5, 5), g.RegionAt(6, 6))
	k.Run()
	if found != g.RegionAt(6, 6) {
		t.Fatalf("found at %v, want final position", found)
	}
}

func TestRootPointerValidation(t *testing.T) {
	k, _, gr, _ := setup(t, 4)
	if _, err := NewRootPointer(k, gr, unit, geo.RegionID(99), 0); err == nil {
		t.Error("accepted out-of-tiling home")
	}
	if _, err := NewRootPointer(k, gr, unit, 0, geo.RegionID(99)); err == nil {
		t.Error("accepted out-of-tiling start")
	}
}

func TestFloodFindCost(t *testing.T) {
	k, g, gr, _ := setup(t, 16)
	start := g.RegionAt(8, 8)
	f, err := NewFlood(k, gr, unit, start)
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != "flood" {
		t.Errorf("Name = %q", f.Name())
	}
	f.Move(start, g.RegionAt(9, 8)) // free
	if f.Ledger().TotalMessages() != 0 {
		t.Error("flood move cost messages")
	}

	// Nearby find: cheap.
	var found geo.RegionID = geo.NoRegion
	f.Find(g.RegionAt(9, 9), func(at geo.RegionID) { found = at })
	k.Run()
	if found != g.RegionAt(9, 8) {
		t.Fatalf("found at %v", found)
	}
	near := f.Ledger().Messages("proto/flood")

	// Distant find: quadratically more work.
	f2, _ := NewFlood(k, gr, unit, g.RegionAt(15, 15))
	f2.Find(g.RegionAt(0, 0), func(geo.RegionID) {})
	k.Run()
	far := f2.Ledger().Messages("proto/flood")
	if far < near*10 {
		t.Errorf("distant flood = %d msgs, nearby = %d; want clearly superlinear growth", far, near)
	}
}

// A region outside the tiling is at distance -1, which is not "within the
// first ring": a move there is refused and the next find reports the region
// the object is really in; a find from there floods nothing.
func TestFloodRefusesRegionsOutsideTiling(t *testing.T) {
	k, g, gr, _ := setup(t, 8)
	start := g.RegionAt(6, 6)
	f, err := NewFlood(k, gr, unit, start)
	if err != nil {
		t.Fatal(err)
	}
	f.Move(start, geo.NoRegion)
	found, rounds := geo.NoRegion, f.Ledger().Messages("proto/flood")
	f.Find(g.RegionAt(0, 0), func(at geo.RegionID) { found = at })
	k.Run()
	if found != start {
		t.Fatalf("after a move to r⊥ the find reported %v, want %v", found, start)
	}
	if f.Ledger().Messages("proto/flood") <= rounds+9 {
		t.Error("a find six hops away finished within its first ring")
	}

	before := f.Ledger().Messages("proto/flood")
	f.Find(geo.RegionID(999), func(geo.RegionID) { t.Error("find from outside the tiling completed") })
	k.Run()
	if got := f.Ledger().Messages("proto/flood"); got != before {
		t.Errorf("find from outside the tiling flooded %d messages", got-before)
	}
}

func TestHierDirFindWalksChain(t *testing.T) {
	k, g, _, h := setup(t, 8)
	start := g.RegionAt(0, 0)
	d, err := NewHierDir(k, h, unit, start)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "hierdir" {
		t.Errorf("Name = %q", d.Name())
	}
	var found geo.RegionID = geo.NoRegion
	d.Find(g.RegionAt(7, 7), func(at geo.RegionID) { found = at })
	k.Run()
	if found != start {
		t.Fatalf("found at %v, want %v", found, start)
	}
	if d.Ledger().Work("proto/find") <= 0 {
		t.Error("find charged no work")
	}
}

func TestHierDirLocalMoveIsCheap(t *testing.T) {
	k, g, _, h := setup(t, 16)
	// A move inside one level-1 block only rewrites levels 0..1.
	a, b := g.RegionAt(0, 0), g.RegionAt(1, 1)
	d, err := NewHierDir(k, h, unit, a)
	if err != nil {
		t.Fatal(err)
	}
	before := d.Ledger().Snapshot()
	d.Move(a, b)
	localWork := d.Ledger().Snapshot().Sub(before).TotalWork()

	// A move across the top-level boundary rewrites the whole chain
	// (the dithering problem).
	c, e := g.RegionAt(7, 7), g.RegionAt(8, 8)
	d2, _ := NewHierDir(k, h, unit, c)
	before = d2.Ledger().Snapshot()
	d2.Move(c, e)
	boundaryWork := d2.Ledger().Snapshot().Sub(before).TotalWork()
	if boundaryWork < 4*localWork {
		t.Errorf("boundary move work %d not >> local move work %d", boundaryWork, localWork)
	}
}

func TestHierDirFindAfterManyMoves(t *testing.T) {
	k, g, _, h := setup(t, 8)
	d, err := NewHierDir(k, h, unit, g.RegionAt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	cur := g.RegionAt(0, 0)
	for x := 1; x < 8; x++ {
		next := g.RegionAt(x, x%2)
		d.Move(cur, next)
		cur = next
	}
	var found geo.RegionID = geo.NoRegion
	d.Find(g.RegionAt(0, 7), func(at geo.RegionID) { found = at })
	k.Run()
	if found != cur {
		t.Fatalf("found at %v, want %v", found, cur)
	}
	// Only the current chain's clusters hold pointers (no leaks).
	count := 0
	for range d.ptr {
		count++
	}
	if count != h.MaxLevel()+1 {
		t.Errorf("directory holds %d pointers, want %d", count, h.MaxLevel()+1)
	}
}

func TestBaselineLatenciesPositive(t *testing.T) {
	k, g, gr, h := setup(t, 8)
	start := g.RegionAt(0, 0)
	origin := g.RegionAt(7, 7)
	r, _ := NewRootPointer(k, gr, unit, g.RegionAt(4, 4), start)
	f, _ := NewFlood(k, gr, unit, start)
	d, _ := NewHierDir(k, h, unit, start)
	for _, tr := range []Tracker{r, f, d} {
		doneAt := sim.Time(-1)
		startAt := k.Now()
		tr.Find(origin, func(geo.RegionID) { doneAt = k.Now() })
		k.Run()
		if doneAt <= startAt {
			t.Errorf("%s: found with non-positive latency", tr.Name())
		}
	}
}
