package lookahead

import (
	"math/rand"
	"testing"
	"time"

	"vinestalk/internal/cgcast"
	"vinestalk/internal/evader"
	"vinestalk/internal/geo"
	"vinestalk/internal/geocast"
	"vinestalk/internal/hier"
	"vinestalk/internal/metrics"
	"vinestalk/internal/sim"
	"vinestalk/internal/tracker"
	"vinestalk/internal/vbcast"
	"vinestalk/internal/vsa"
)

const (
	delta = 10 * time.Millisecond
	lagE  = 5 * time.Millisecond
)

type stack struct {
	k     *sim.Kernel
	h     *hier.Hierarchy
	net   *tracker.Network
	ev    *evader.Evader
	trail *[]geo.RegionID // the evader's path, start region first
}

// recordPath records the evader's path from its current region on through
// its observer (the evader keeps none), so AtomicMoveSeq can serve as the
// reference model.
func recordPath(ev *evader.Evader) *[]geo.RegionID {
	path := []geo.RegionID{ev.Region()}
	ev.Observe(func(_, to geo.RegionID) { path = append(path, to) })
	return &path
}

func newStack(t *testing.T, side, r int, start geo.RegionID, seed int64) *stack {
	t.Helper()
	k := sim.New(seed)
	tiling := geo.MustGridTiling(side, side)
	h := hier.MustGrid(tiling, r)
	layer := vsa.NewLayer(k, tiling, vsa.WithAlwaysAlive())
	ledger := metrics.NewLedger()
	vb := vbcast.New(k, layer, delta, lagE, ledger)
	gc := geocast.New(k, layer, h.Graph(), vb, ledger)
	geom := hier.MeasureGeometry(h)
	cg, err := cgcast.New(h, layer, gc, vb, geom, ledger)
	if err != nil {
		t.Fatal(err)
	}
	net, err := tracker.New(cg, geom)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.AddStationaryClients(); err != nil {
		t.Fatal(err)
	}
	layer.StartAllAlive()
	ev, err := evader.New(tiling, start, net.Sink())
	if err != nil {
		t.Fatal(err)
	}
	return &stack{k: k, h: h, net: net, ev: ev, trail: recordPath(ev)}
}

func (s *stack) settle(t *testing.T) {
	t.Helper()
	if _, err := s.k.RunLimited(2_000_000); err != nil {
		t.Fatalf("did not settle: %v", err)
	}
}

// Theorem 4.8 at quiescence: after each atomic move completes, the captured
// implementation state must equal atomicMoveSeq of the trail exactly
// (lookAhead of a quiescent state is the state itself).
func TestTheorem48AtQuiescence(t *testing.T) {
	s := newStack(t, 8, 2, 0, 1)
	s.settle(t)
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 40; step++ {
		nbrs := s.h.Tiling().Neighbors(s.ev.Region())
		if err := s.ev.MoveTo(nbrs[rng.Intn(len(nbrs))]); err != nil {
			t.Fatal(err)
		}
		s.settle(t)
		got := Capture(s.net)
		want, err := AtomicMoveSeq(s.h, *s.trail)
		if err != nil {
			t.Fatal(err)
		}
		if diff := Equal(LookAhead(got), want); diff != "" {
			t.Fatalf("step %d (trail %v): %s", step, *s.trail, diff)
		}
		if err := got.IsConsistent(s.ev.Region()); err != nil {
			t.Fatalf("step %d: quiescent state not consistent: %v", step, err)
		}
	}
}

// Theorem 4.8 mid-flight: while a single move's updates are in progress,
// lookAhead of every intermediate state must already equal the atomic
// result, and the Lemma 4.1/4.3 invariants must hold at every event
// boundary.
func TestTheorem48MidFlight(t *testing.T) {
	s := newStack(t, 8, 2, 0, 2)
	s.settle(t)
	rng := rand.New(rand.NewSource(11))
	for step := 0; step < 15; step++ {
		nbrs := s.h.Tiling().Neighbors(s.ev.Region())
		if err := s.ev.MoveTo(nbrs[rng.Intn(len(nbrs))]); err != nil {
			t.Fatal(err)
		}
		want, err := AtomicMoveSeq(s.h, *s.trail)
		if err != nil {
			t.Fatal(err)
		}
		for events := 0; ; events++ {
			if events > 1_000_000 {
				t.Fatal("move never settled")
			}
			got := Capture(s.net)
			if err := got.CheckInvariants(); err != nil {
				t.Fatalf("step %d after %d events: %v", step, events, err)
			}
			if diff := Equal(LookAhead(got), want); diff != "" {
				t.Fatalf("step %d after %d events: %s", step, events, diff)
			}
			if !s.k.Step() {
				break
			}
		}
		if !s.net.MoveQuiescent() {
			t.Fatalf("step %d: drained but not quiescent", step)
		}
	}
}

// Property: random grids, random starts, random walks — quiescent states
// always match the spec.
func TestTheorem48RandomConfigurations(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 6; trial++ {
		side := 4 + rng.Intn(5) // 4..8
		r := 2 + rng.Intn(2)    // 2..3
		tl := geo.MustGridTiling(side, side)
		start := geo.RegionID(rng.Intn(tl.NumRegions()))
		s := newStack(t, side, r, start, int64(trial))
		s.settle(t)
		for step := 0; step < 12; step++ {
			nbrs := s.h.Tiling().Neighbors(s.ev.Region())
			if err := s.ev.MoveTo(nbrs[rng.Intn(len(nbrs))]); err != nil {
				t.Fatal(err)
			}
			s.settle(t)
			want, err := AtomicMoveSeq(s.h, *s.trail)
			if err != nil {
				t.Fatal(err)
			}
			if diff := Equal(Capture(s.net), want); diff != "" {
				t.Fatalf("trial %d (side=%d r=%d) step %d: %s", trial, side, r, step, diff)
			}
		}
	}
}

// The dithering workload end-to-end: oscillation across the top-level
// boundary stays consistent and local.
func TestTheorem48Dithering(t *testing.T) {
	s := newStack(t, 8, 2, 27, 3) // (3,3)
	s.settle(t)
	g := s.h.Tiling().(*geo.GridTiling)
	a, b := g.RegionAt(3, 3), g.RegionAt(4, 3)
	cur, other := a, b
	for i := 0; i < 12; i++ {
		if err := s.ev.MoveTo(other); err != nil {
			t.Fatal(err)
		}
		s.settle(t)
		want, err := AtomicMoveSeq(s.h, *s.trail)
		if err != nil {
			t.Fatal(err)
		}
		if diff := Equal(Capture(s.net), want); diff != "" {
			t.Fatalf("oscillation %d: %s", i, diff)
		}
		cur, other = other, cur
	}
	_ = cur
}

// Theorem 4.8 is hierarchy-generic: the equality also holds when the
// tracker runs over an irregular landmark decomposition instead of the
// grid hierarchy.
func TestTheorem48OverLandmarkHierarchy(t *testing.T) {
	k := sim.New(31)
	tiling := geo.MustGridTiling(8, 8)
	h, err := hier.NewLandmark(tiling, 2)
	if err != nil {
		t.Fatal(err)
	}
	layer := vsa.NewLayer(k, tiling, vsa.WithAlwaysAlive())
	ledger := metrics.NewLedger()
	vb := vbcast.New(k, layer, delta, lagE, ledger)
	gc := geocast.New(k, layer, h.Graph(), vb, ledger)
	geom := hier.MeasureGeometry(h)
	cg, err := cgcast.New(h, layer, gc, vb, geom, ledger)
	if err != nil {
		t.Fatal(err)
	}
	net, err := tracker.New(cg, geom)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.AddStationaryClients(); err != nil {
		t.Fatal(err)
	}
	layer.StartAllAlive()
	ev, err := evader.New(tiling, 27, net.Sink())
	if err != nil {
		t.Fatal(err)
	}
	st := &stack{k: k, h: h, net: net, ev: ev, trail: recordPath(ev)}
	st.settle(t)
	rng := rand.New(rand.NewSource(13))
	for step := 0; step < 20; step++ {
		nbrs := tiling.Neighbors(st.ev.Region())
		if err := st.ev.MoveTo(nbrs[rng.Intn(len(nbrs))]); err != nil {
			t.Fatal(err)
		}
		st.settle(t)
		got := Capture(st.net)
		want, err := AtomicMoveSeq(h, *st.trail)
		if err != nil {
			t.Fatal(err)
		}
		if diff := Equal(got, want); diff != "" {
			t.Fatalf("step %d on landmark hierarchy: %s", step, diff)
		}
		if err := got.IsConsistent(st.ev.Region()); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}
