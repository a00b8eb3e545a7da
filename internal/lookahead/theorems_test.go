package lookahead

import (
	"math/rand"
	"testing"
	"time"

	"vinestalk/internal/evader"
	"vinestalk/internal/geo"
	"vinestalk/internal/hier"
	"vinestalk/internal/tracker"
)

// Theorem 5.1: along random atomic walks, every consistent state provides
// a path pointer within {cluster(u,l)} ∪ nbrs for every region within
// q(l) of the evader — checked exhaustively over all (region, level)
// pairs at every step.
func TestTheorem51OnRandomWalks(t *testing.T) {
	h := hier.MustGrid(geo.MustGridTiling(8, 8), 2)
	geom := hier.MeasureGeometry(h)
	tl := h.Tiling()
	for trial := 0; trial < 4; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 40))
		cur := geo.RegionID(rng.Intn(tl.NumRegions()))
		s := Init(h, cur)
		if err := s.CheckTheorem51(cur, geom); err != nil {
			t.Fatalf("trial %d init: %v", trial, err)
		}
		for step := 0; step < 20; step++ {
			nbrs := tl.Neighbors(cur)
			next := nbrs[rng.Intn(len(nbrs))]
			out, err := AtomicMove(s, cur, next)
			if err != nil {
				t.Fatal(err)
			}
			if err := out.CheckTheorem51(next, geom); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			s, cur = out, next
		}
	}
}

// Theorem 5.1 also holds on the live system at quiescence.
func TestTheorem51OnLiveSystem(t *testing.T) {
	s := newStack(t, 8, 2, 27, 21)
	s.settle(t)
	geom := hier.MeasureGeometry(s.h)
	rng := rand.New(rand.NewSource(33))
	for step := 0; step < 10; step++ {
		nbrs := s.h.Tiling().Neighbors(s.ev.Region())
		if err := s.ev.MoveTo(nbrs[rng.Intn(len(nbrs))]); err != nil {
			t.Fatal(err)
		}
		s.settle(t)
		if err := Capture(s.net).CheckTheorem51(s.ev.Region(), geom); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// Lemma 4.2: a grow is sent laterally at most once per level per move, so
// each settled move emits at most MAX lateral connections — measurable as
// growNbr message batches (one batch of ω messages per lateral).
func TestLemma42LateralBudget(t *testing.T) {
	s := newStack(t, 8, 2, 0, 22)
	s.settle(t)
	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 25; step++ {
		nbrs := s.h.Tiling().Neighbors(s.ev.Region())
		if err := s.ev.MoveTo(nbrs[rng.Intn(len(nbrs))]); err != nil {
			t.Fatal(err)
		}
		// Count lateral link creations during this move by walking the
		// settled path: at most one lateral per level (Lemma 4.2 bounds
		// per-move lateral sends; the settled structure shows at most one
		// surviving lateral per level).
		s.settle(t)
		snap := Capture(s.net)
		path, err := snap.TrackingPath()
		if err != nil {
			t.Fatal(err)
		}
		perLevel := make(map[int]int)
		for _, c := range path {
			if p := snap.P[c]; p != hier.NoCluster && s.h.AreNbrs(c, p) {
				perLevel[s.h.Level(c)]++
			}
		}
		for lvl, n := range perLevel {
			if n > 1 {
				t.Fatalf("step %d: %d laterals at level %d", step, n, lvl)
			}
		}
	}
}

// Theorem 4.5: updates terminate. Even after a long burst of maximal-rate
// pipelined moves (far past the legal speed bound), once the object stops,
// the system must reach move-quiescence.
func TestTheorem45TerminationAfterSpeedViolation(t *testing.T) {
	s := newStack(t, 8, 2, 0, 23)
	s.settle(t)
	w := evader.StartWalker(s.k, s.ev,
		evader.RandomWalk{Tiling: s.h.Tiling()}, 15*time.Millisecond, 150, nil)
	// Run the burst: one move per unit delay, far faster than the
	// schedule's timers.
	s.k.RunFor(150 * 15 * time.Millisecond)
	w.Stop()
	// Everything must settle now.
	if _, err := s.k.RunLimited(5_000_000); err != nil {
		t.Fatalf("updates did not terminate after the burst: %v", err)
	}
	if !s.net.MoveQuiescent() {
		t.Fatal("network not move-quiescent after the burst settled")
	}
	// Past the speed bound the paper promises only a "suboptimal
	// tracking path construction" that "can still recover to something
	// usable" (§VII) — the settled structure need not equal the atomic
	// spec (e.g. a lateral may have been missed), but it must still be a
	// functional tracking path, and finds must succeed.
	snap := Capture(s.net)
	path, err := snap.TrackingPath()
	if err != nil {
		t.Fatalf("post-burst structure unusable: %v", err)
	}
	if leaf, want := path[len(path)-1], s.h.Cluster(s.ev.Region(), 0); leaf != want {
		t.Fatalf("post-burst path ends at %v, evader at %v", leaf, want)
	}
	id, err := s.net.Find(geo.RegionID(63))
	if err != nil {
		t.Fatal(err)
	}
	s.settle(t)
	if !s.net.FindDone(id) {
		t.Fatal("post-burst find did not complete")
	}
}

// Theorem 4.8 per object: with two evaders tracked simultaneously, each
// object's captured state equals its own atomicMoveSeq — the per-object
// capture excludes the other object's structure and traffic.
func TestTheorem48PerObject(t *testing.T) {
	s := newStack(t, 8, 2, 0, 29)
	ev2, err := evader.New(s.h.Tiling(), geo.RegionID(63), s.net.SinkFor(1))
	if err != nil {
		t.Fatal(err)
	}
	trail2 := recordPath(ev2)
	s.settle(t)
	rng := rand.New(rand.NewSource(17))
	for step := 0; step < 10; step++ {
		n0 := s.h.Tiling().Neighbors(s.ev.Region())
		if err := s.ev.MoveTo(n0[rng.Intn(len(n0))]); err != nil {
			t.Fatal(err)
		}
		n1 := s.h.Tiling().Neighbors(ev2.Region())
		if err := ev2.MoveTo(n1[rng.Intn(len(n1))]); err != nil {
			t.Fatal(err)
		}
		s.settle(t)
		for obj, trail := range map[tracker.ObjectID][]geo.RegionID{
			tracker.DefaultObject: *s.trail,
			1:                     *trail2,
		} {
			want, err := AtomicMoveSeq(s.h, trail)
			if err != nil {
				t.Fatal(err)
			}
			if diff := Equal(CaptureObject(s.net, obj), want); diff != "" {
				t.Fatalf("step %d object %d: %s", step, obj, diff)
			}
		}
	}
}
