package core

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"vinestalk/internal/evader"
	"vinestalk/internal/geo"
	"vinestalk/internal/hier"
	"vinestalk/internal/trace"
	"vinestalk/internal/tracker"
)

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted zero Width")
	}
	if _, err := New(Config{Width: 8, Start: geo.RegionID(1000)}); err == nil {
		t.Error("New accepted out-of-grid start region")
	}
	if _, err := New(Config{Width: 8, Base: 1}); err == nil {
		t.Error("New accepted base 1")
	}
}

func TestServiceDefaultsAndAccessors(t *testing.T) {
	s, err := New(Config{Width: 8, AlwaysAliveVSAs: true})
	if err != nil {
		t.Fatal(err)
	}
	if s.Tiling().Width() != 8 || s.Tiling().Height() != 8 {
		t.Error("Height did not default to Width")
	}
	if s.Hierarchy().MaxLevel() != 3 {
		t.Errorf("MaxLevel = %d, want 3", s.Hierarchy().MaxLevel())
	}
	if s.Kernel() == nil || s.Layer() == nil || s.Ledger() == nil || s.Network() == nil || s.Evader() == nil {
		t.Fatal("nil component accessor")
	}
	if s.Geometry().MaxLevel() != 3 {
		t.Error("geometry level mismatch")
	}
}

func TestServiceTracksAndFinds(t *testing.T) {
	s, err := New(Config{Width: 8, AlwaysAliveVSAs: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
	g := s.Tiling()
	msgs, work, elapsed, err := s.MoveStats(g.RegionAt(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if msgs <= 0 || work < 0 || elapsed <= 0 {
		t.Errorf("MoveStats = (%d, %d, %v)", msgs, work, elapsed)
	}
	if err := s.CheckTheorem48(); err != nil {
		t.Fatal(err)
	}
	fm, fw, lat, err := s.FindStats(g.RegionAt(7, 7))
	if err != nil {
		t.Fatal(err)
	}
	if fm <= 0 || fw <= 0 || lat <= 0 {
		t.Errorf("FindStats = (%d, %d, %v)", fm, fw, lat)
	}
	founds := s.Founds()
	if len(founds) != 1 || founds[0].FoundAt != s.Evader().Region() {
		t.Fatalf("Founds = %+v", founds)
	}
}

func TestServiceFindLatencyRecorded(t *testing.T) {
	s, err := New(Config{Width: 4, AlwaysAliveVSAs: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	_, _, lat, err := s.FindStats(s.Tiling().RegionAt(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 || lat > time.Hour {
		t.Errorf("latency = %v", lat)
	}
}

func TestServiceWithMobilityModel(t *testing.T) {
	s, err := New(Config{Width: 8, AlwaysAliveVSAs: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	w := evader.StartWalker(s.Kernel(), s.Evader(),
		evader.RandomWalk{Tiling: s.Tiling()}, 500*time.Millisecond, 20, nil)
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	_ = w
	if s.Evader().TotalDistance() != 20 {
		t.Fatalf("walker moved %d, want 20", s.Evader().TotalDistance())
	}
	if err := s.CheckTheorem48(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}

func TestServiceHeartbeatModeRejectsSettle(t *testing.T) {
	s, err := New(Config{Width: 4, Heartbeat: 100 * time.Millisecond, TRestart: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Settle(); err == nil {
		t.Fatal("Settle allowed with heartbeats enabled")
	}
	s.RunFor(2 * time.Second)
	id, err := s.Find(s.Tiling().RegionAt(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	s.RunFor(5 * time.Second)
	if !s.FindDone(id) {
		t.Fatal("find did not complete in heartbeat mode")
	}
}

func TestServiceOnFoundCallback(t *testing.T) {
	var got []tracker.FindResult
	s, err := New(Config{Width: 4, AlwaysAliveVSAs: true, OnFound: func(r tracker.FindResult) {
		got = append(got, r)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.FindStats(s.Tiling().RegionAt(3, 3)); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("callback invoked %d times, want 1", len(got))
	}
}

func TestServiceDeterminism(t *testing.T) {
	run := func() (int64, int64) {
		s, err := New(Config{Width: 8, AlwaysAliveVSAs: true, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Settle(); err != nil {
			t.Fatal(err)
		}
		evader.StartWalker(s.Kernel(), s.Evader(),
			evader.RandomWalk{Tiling: s.Tiling()}, 300*time.Millisecond, 15, nil)
		if err := s.Settle(); err != nil {
			t.Fatal(err)
		}
		return s.Ledger().TotalMessages(), s.Ledger().TotalWork()
	}
	m1, w1 := run()
	m2, w2 := run()
	if m1 != m2 || w1 != w2 {
		t.Fatalf("identical configs diverged: (%d,%d) vs (%d,%d)", m1, w1, m2, w2)
	}
}

func TestServiceReplicatedHeads(t *testing.T) {
	s, err := New(Config{Width: 8, AlwaysAliveVSAs: true, ReplicatedHeads: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.MoveStats(s.Tiling().RegionAt(1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.FindStats(s.Tiling().RegionAt(7, 7)); err != nil {
		t.Fatal(err)
	}
	// The backup replica exists for multi-member clusters.
	lvl1 := s.Hierarchy().Cluster(s.Evader().Region(), 1)
	if s.Network().BackupProcess(lvl1) == nil {
		t.Fatal("no backup replica under ReplicatedHeads")
	}
}

func TestServiceAddObject(t *testing.T) {
	s, err := New(Config{Width: 8, AlwaysAliveVSAs: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddObject(0, 5); err == nil {
		t.Error("AddObject accepted the primary object id")
	}
	ev2, err := s.AddObject(1, s.Tiling().RegionAt(7, 7))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	id, err := s.FindObject(s.Tiling().RegionAt(0, 7), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	if !s.FindDone(id) {
		t.Fatal("find for secondary object incomplete")
	}
	for _, r := range s.Founds() {
		if r.ID == id && r.FoundAt != ev2.Region() {
			t.Errorf("found at %v, want %v", r.FoundAt, ev2.Region())
		}
	}
}

// A second AddObject for a tracked id (however the first was attached) is
// rejected before it places an evader: no second move input, no second
// tracking path, every region's state as it was.
func TestServiceAddObjectRejectsDuplicate(t *testing.T) {
	s, err := New(Config{Width: 8, AlwaysAliveVSAs: true})
	if err != nil {
		t.Fatal(err)
	}
	ev1, err := s.AddObject(1, s.Tiling().RegionAt(7, 7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddObjects([]ObjectPlacement{{Obj: 2, Start: s.Tiling().RegionAt(0, 7)}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	encode := func() [][]byte {
		encs := make([][]byte, s.Tiling().NumRegions())
		for u := range encs {
			encs[u] = s.Network().Automaton().EncodeRegion(geo.RegionID(u))
		}
		return encs
	}
	before, steps := encode(), s.Kernel().Steps()
	for _, obj := range []tracker.ObjectID{1, 2} {
		if _, err := s.AddObject(obj, s.Tiling().RegionAt(0, 0)); err == nil || !strings.Contains(err.Error(), "already attached") {
			t.Errorf("AddObject(%d) on a tracked id: got %v, want an already-attached error", obj, err)
		}
	}
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	if s.Kernel().Steps() != steps {
		t.Errorf("rejected AddObject scheduled %d events", s.Kernel().Steps()-steps)
	}
	if !reflect.DeepEqual(encode(), before) {
		t.Error("rejected AddObject changed region state")
	}
	id, err := s.FindObject(s.Tiling().RegionAt(0, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	for _, r := range s.Founds() {
		if r.ID == id && r.FoundAt != ev1.Region() {
			t.Errorf("object 1 found at %v, want %v", r.FoundAt, ev1.Region())
		}
	}
}

func TestServiceTracer(t *testing.T) {
	tr := trace.New(256)
	s, err := New(Config{Width: 4, AlwaysAliveVSAs: true, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.FindStats(s.Tiling().RegionAt(3, 3)); err != nil {
		t.Fatal(err)
	}
	if tr.Total() == 0 {
		t.Fatal("tracer saw no events")
	}
	kinds := map[string]bool{}
	for _, e := range tr.Events() {
		kinds[e.Kind] = true
	}
	for _, want := range []string{"send", "recv", "found"} {
		if !kinds[want] {
			t.Errorf("no %q events traced (kinds: %v)", want, kinds)
		}
	}
}

func TestNewWithHierarchyValidation(t *testing.T) {
	h := hier.MustGrid(geo.MustGridTiling(8, 8), 2)
	// Mismatched dimensions are rejected.
	if _, err := NewWithHierarchy(h, Config{Width: 4}); err == nil {
		t.Error("accepted mismatched dimensions")
	}
	// Matching config works.
	s, err := NewWithHierarchy(h, Config{Width: 8, AlwaysAliveVSAs: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	// Non-grid tiling (adjacency) is rejected by the grid-specific core.
	adj, err := geo.NewAdjacencyTiling([][]geo.RegionID{{1}, {0, 2}, {1, 3}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	lh, err := hier.NewLandmark(adj, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWithHierarchy(lh, Config{Width: 4}); err == nil {
		t.Error("accepted non-grid tiling (use the tracker packages directly for those)")
	}
}

// The whole message path, end to end: on an 8×8 oracle service a settled
// move averages 26 protocol messages and a settled find 14, over ≈ 49 relay
// hops between them, and neither may cost an allocation per message or per
// hop. A move costs none at all: its two client broadcasts ride recycled
// C-gcast envelopes, and a process that joins the path reuses the table
// slab it kept when it last left one. What a find still allocates is per
// operation: its payload list, re-sliced and boxed once per find-carrying
// hop, the found broadcast's one Delivery, and the find's record (measured:
// 17; the found's per-target arrivals are recycled V-bcast records).
// Reintroducing a box, a closure or a string concatenation on the
// per-message path adds one allocation per message — twenty-six to a move,
// fourteen to a find — and fails here.
func TestSettledOperationsAllocatePerOperationNotPerMessage(t *testing.T) {
	const (
		maxPerMove = 0
		maxPerFind = 17
	)
	svc, err := New(Config{Width: 8, Start: 9, AlwaysAliveVSAs: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Settle(); err != nil {
		t.Fatal(err)
	}
	// The evader laps the ring of regions one in from the border, so moves
	// cross cluster boundaries of every level; a find comes from the corner
	// opposite the evader's quadrant.
	var ring []geo.RegionID
	for x := 1; x < 6; x++ {
		ring = append(ring, svc.Tiling().RegionAt(x, 1))
	}
	for y := 1; y < 6; y++ {
		ring = append(ring, svc.Tiling().RegionAt(6, y))
	}
	for x := 6; x > 1; x-- {
		ring = append(ring, svc.Tiling().RegionAt(x, 6))
	}
	for y := 6; y > 1; y-- {
		ring = append(ring, svc.Tiling().RegionAt(1, y))
	}
	pos := 0
	move := func() {
		pos = (pos + 1) % len(ring)
		if err := svc.MoveEvader(ring[pos]); err != nil {
			t.Fatal(err)
		}
		if err := svc.Settle(); err != nil {
			t.Fatal(err)
		}
	}
	find := func() {
		x, y := svc.Tiling().Coord(ring[pos])
		if _, err := svc.Find(svc.Tiling().RegionAt(7*(1-x/4), 7*(1-y/4))); err != nil {
			t.Fatal(err)
		}
		if err := svc.Settle(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ { // warm-up: free lists, kernel arena, maps
		move()
		find()
	}
	before := svc.Ledger().Snapshot()
	if allocs := testing.AllocsPerRun(100, move); allocs > maxPerMove {
		t.Errorf("a settled move allocates %v times, want at most %d", allocs, maxPerMove)
	}
	if allocs := testing.AllocsPerRun(100, find); allocs > maxPerFind {
		t.Errorf("a settled find allocates %v times, want at most %d", allocs, maxPerFind)
	}
	// The operations are what the bounds assume (AllocsPerRun runs each 101
	// times).
	diff := svc.Ledger().Snapshot().Sub(before)
	if msgs := protoMessages(diff); msgs < 101*(24+13) {
		t.Errorf("only %d protocol messages over 101 moves and 101 finds: the bounds no longer separate per-operation from per-message cost", msgs)
	}
}

// What a settled move+find pair retains is pinned here. The network keeps
// a find's record only while the find is outstanding, the evader keeps no
// trail and the Theorem 4.8 reference is a fold of fixed size, so on a
// 64×64 walk what remains per pair is the find's FindResult in Founds
// (until Founds streams), plus, until every process has held a find once
// and every region has armed a timer once, the pending-find map a process
// keeps from its first held find on and the wakeup map a region keeps
// from its first arm on (measured: 71.1 bytes per pair; 144 while every
// find kept its record for the rest of the run and the evader its trail,
// 134 while one wakeup map served every region; 189 while the network and
// the service kept three maps per find between them).
func TestSettledPairsRetainLittleHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("64×64 walk of 32 000 settled pairs")
	}
	const (
		warm, pairs     = 2_000, 30_000
		maxBytesPerPair = 78 // the measured figure + 10 %
	)
	svc, err := New(Config{Width: 64, AlwaysAliveVSAs: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Settle(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	pair := func() tracker.FindID {
		nbrs := svc.Tiling().Neighbors(svc.Evader().Region())
		if err := svc.MoveEvader(nbrs[rng.Intn(len(nbrs))]); err != nil {
			t.Fatal(err)
		}
		if err := svc.Settle(); err != nil {
			t.Fatal(err)
		}
		id, err := svc.Find(geo.RegionID(rng.Intn(svc.Tiling().NumRegions())))
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Settle(); err != nil {
			t.Fatal(err)
		}
		return id
	}
	first := pair()
	for i := 1; i < warm; i++ {
		pair()
	}
	before := liveHeap()
	for i := 0; i < pairs; i++ {
		pair()
	}
	perPair := float64(liveHeap()-before) / pairs
	t.Logf("live heap grew %.1f bytes per settled move+find pair", perPair)
	if perPair > maxBytesPerPair {
		t.Errorf("live heap grew %.1f bytes per settled move+find pair, want at most %d", perPair, maxBytesPerPair)
	}
	if !svc.FindDone(first) {
		t.Errorf("find %d, %d pairs ago, is not done", first, warm+pairs)
	}
	if n := svc.Network().OutstandingFinds(); n != 0 {
		t.Errorf("the network holds %d find records after every find has been answered", n)
	}
	if err := svc.CheckTheorem48(); err != nil {
		t.Error(err)
	}
}

// liveHeap is the heap that survives a forced collection.
func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// Laps of a settled fan-out retain nothing per operation beyond the
// FindResults that Founds keeps: after a forced GC, the live heap after 4N
// laps exceeds that after N laps by the growth of Founds' backing array
// and by less than one byte per operation besides. A lap moves every object
// to a fixed neighbour, runs a fixed set of finds and moves every object
// back, so each lap leaves the tables as the last one did and the
// high-water structures (probe arrays, maps) reach their size in the first
// lap. Batched C-gcast's entry segments are among them: they are pooled by
// size class, so the pool keeps, per class, the most segments of that class
// in use at once. (When each pooled frame kept the largest entry buffer it
// had held, the pool crept about 300 entries, 14–16 kB, a lap, ≈ 2 B per
// operation, towards 1 860 frames × 85 entries.) The pool recycles as the
// frames did: 8 295 allocations a lap, against 8 303 before the classes;
// the bound leaves 1 % for the runtime's own.
func TestFanoutLapsRetainOnlyFounds(t *testing.T) {
	if testing.Short() {
		t.Skip("4 096 objects on a 16×16 grid, 12 laps")
	}
	const (
		objects, findsPerLap = 4_096, 512
		n                    = 3 // laps before the first reading; 4n before the second
		maxAllocsPerLap      = 8_400
	)
	svc, err := New(Config{Width: 16, Seed: 3, AlwaysAliveVSAs: true, FormulaGeometry: true, BatchCgcast: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Settle(); err != nil {
		t.Fatal(err)
	}
	regions := svc.Tiling().NumRegions()
	rng := rand.New(rand.NewSource(3))
	placements := make([]ObjectPlacement, objects)
	away := make([]geo.RegionID, objects)
	for i := range placements {
		start := geo.RegionID(rng.Intn(regions))
		placements[i] = ObjectPlacement{Obj: tracker.ObjectID(i + 1), Start: start}
		nbrs := svc.Tiling().Neighbors(start)
		away[i] = nbrs[rng.Intn(len(nbrs))]
	}
	type find struct {
		at  geo.RegionID
		obj tracker.ObjectID
	}
	finds := make([]find, findsPerLap)
	for i := range finds {
		finds[i] = find{geo.RegionID(rng.Intn(regions)), tracker.ObjectID(1 + rng.Intn(objects))}
	}
	evs, err := svc.AddObjects(placements)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Settle(); err != nil {
		t.Fatal(err)
	}
	moveAll := func(to func(i int) geo.RegionID) {
		for i, p := range placements {
			if err := evs[p.Obj].MoveTo(to(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := svc.Settle(); err != nil {
			t.Fatal(err)
		}
	}
	lap := func() {
		moveAll(func(i int) geo.RegionID { return away[i] })
		for _, f := range finds {
			if _, err := svc.FindObject(f.at, f.obj); err != nil {
				t.Fatal(err)
			}
		}
		if err := svc.Settle(); err != nil {
			t.Fatal(err)
		}
		moveAll(func(i int) geo.RegionID { return placements[i].Start })
	}
	// foundsBytes is what Founds keeps: its backing array.
	foundsBytes := func() int64 {
		return int64(cap(svc.founds)) * int64(unsafe.Sizeof(tracker.FindResult{}))
	}
	for i := 0; i < n; i++ {
		lap()
	}
	heapN, foundsN := liveHeap(), foundsBytes()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := n; i < 4*n; i++ {
		lap()
	}
	runtime.ReadMemStats(&after)
	heap4N, founds4N := liveHeap(), foundsBytes()
	ops := float64(3 * n * (2*objects + findsPerLap))
	rest := float64((heap4N-heapN)-(founds4N-foundsN)) / ops
	perLap := float64(after.Mallocs-before.Mallocs) / float64(3*n)
	t.Logf("laps %d → %d: live heap %+d B, Founds %+d B, the rest %+.3f B per operation; %.0f allocations per lap",
		n, 4*n, heap4N-heapN, founds4N-foundsN, rest, perLap)
	if rest >= 1 {
		t.Errorf("the live heap grew %.3f bytes per operation beyond Founds, want less than 1", rest)
	}
	if perLap > maxAllocsPerLap {
		t.Errorf("%.0f allocations per lap, want at most %d", perLap, maxAllocsPerLap)
	}
	if got := len(svc.Founds()); got != 4*n*findsPerLap {
		t.Errorf("%d founds over %d laps, want %d", got, 4*n, 4*n*findsPerLap)
	}
	if f := svc.Network().OutstandingFinds(); f != 0 {
		t.Errorf("the network holds %d find records after every find has been answered", f)
	}
	runtime.KeepAlive(evs)
}

// The cost of a Theorem 4.8 check does not depend on how many moves came
// before it: it captures and compares the state once, against a fold whose
// size is the hierarchy's. The bytes one check allocates are the same after
// 10 moves and after 2 010.
func TestCheckTheorem48CostDoesNotGrowWithMoves(t *testing.T) {
	svc, err := New(Config{Width: 16, AlwaysAliveVSAs: true, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Settle(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	walk := func(moves int) {
		for i := 0; i < moves; i++ {
			nbrs := svc.Tiling().Neighbors(svc.Evader().Region())
			if err := svc.MoveEvader(nbrs[rng.Intn(len(nbrs))]); err != nil {
				t.Fatal(err)
			}
			if err := svc.Settle(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// checkBytes is the least of five readings, so an allocation by some
	// other goroutine does not count against the check.
	checkBytes := func() uint64 {
		least := uint64(math.MaxUint64)
		for i := 0; i < 5; i++ {
			var a, b runtime.MemStats
			runtime.ReadMemStats(&a)
			if err := svc.CheckTheorem48(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&b)
			least = min(least, b.TotalAlloc-a.TotalAlloc)
		}
		return least
	}
	walk(10)
	early := checkBytes()
	walk(2_000)
	late := checkBytes()
	t.Logf("one Theorem 4.8 check allocates %d bytes after 10 moves, %d after 2 010", early, late)
	if late != early {
		t.Errorf("a Theorem 4.8 check allocates %d bytes after 10 moves but %d after 2 010", early, late)
	}
}

// A settled fan-out is pointer tuples: every row of every process table has
// no armed timer and no held find, and is kept at that size. On a 16×16
// batched service with 32 768 bulk-attached objects, each moved once to a
// seeded neighbour, what the population retains per object is its rows at
// every process on or beside its path, at 3/4 of a probe array, its evader
// and its detection and epoch entries, plus the two C-gcast client
// envelopes its move's same-instant broadcasts left in the free list, the
// deadline slabs the move's armed rows grew, which their tables keep for
// the next burst, and the C-gcast entry segments the burst's frames held,
// pooled by size class (measured: 2 560 bytes per object; 2 399–2 415 while
// each pooled frame kept the largest entry buffer it had held; 2 260 while
// a slab was dropped when its last row cleared; 2 741 while a row was 28
// bytes, its pointers cluster ids, and 3 532 when that row was first pinned
// here, 3 261 before client broadcasts were recycled; 3 424 while the rows
// sat in a slab beside an index of slot numbers, 4 314 while each row
// carried its four timer deadlines, ∞ or not).
func TestSettledFanoutRetainsLittleHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("32 768 objects on a 16×16 grid")
	}
	const (
		objects           = 32_768
		maxBytesPerObject = 2_656 // the measured figure + 10 %
		settledRowBytes   = 21    // id, four pointers and a zero flags byte
	)
	svc, err := New(Config{Width: 16, Seed: 5, AlwaysAliveVSAs: true, FormulaGeometry: true, BatchCgcast: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Settle(); err != nil {
		t.Fatal(err)
	}
	before := liveHeap()
	regions := svc.Tiling().NumRegions()
	rng := rand.New(rand.NewSource(5))
	placements := make([]ObjectPlacement, objects)
	for i := range placements {
		placements[i] = ObjectPlacement{Obj: tracker.ObjectID(i + 1), Start: geo.RegionID(rng.Intn(regions))}
	}
	evs, err := svc.AddObjects(placements)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Settle(); err != nil {
		t.Fatal(err)
	}
	for _, p := range placements {
		ev := evs[p.Obj]
		nbrs := svc.Tiling().Neighbors(ev.Region())
		if err := ev.MoveTo(nbrs[rng.Intn(len(nbrs))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Settle(); err != nil {
		t.Fatal(err)
	}
	perObject := float64(liveHeap()-before) / objects
	t.Logf("a settled fan-out retains %.1f bytes per object", perObject)
	if perObject > maxBytesPerObject {
		t.Errorf("a settled fan-out retains %.1f bytes per object, want at most %d", perObject, maxBytesPerObject)
	}
	// A region encodes its header, one header per hosted level and
	// settledRowBytes per row exactly when no row holds a timer or a find.
	levels, rows := make([]int, regions), make([]int, regions)
	for c := 0; c < svc.Hierarchy().NumClusters(); c++ {
		pr := svc.Network().Process(hier.ClusterID(c))
		levels[pr.Region()]++
		rows[pr.Region()] += pr.LiveObjects()
	}
	for u := 0; u < regions; u++ {
		enc := svc.Network().Automaton().EncodeRegion(geo.RegionID(u))
		if want := 4 + 6*levels[u] + settledRowBytes*rows[u]; len(enc) != want {
			t.Errorf("region %d: %d rows encode to %d bytes, want %d: some row is not settled", u, rows[u], len(enc), want)
		}
		if n := svc.Network().ArmedWakeups(geo.RegionID(u)); n != 0 {
			t.Errorf("region %d: %d host wakeups armed in a settled fan-out", u, n)
		}
	}
	runtime.KeepAlive(evs)
}
