package lookahead

import (
	"testing"

	"vinestalk/internal/geo"
	"vinestalk/internal/hier"
	"vinestalk/internal/tracker"
)

// FuzzAtomicMoveWalk interprets the fuzz input as a walk (each byte picks
// a neighbor index) and requires the atomic specification to preserve
// consistency at every step. Run the seed corpus with go test, or explore
// with go test -fuzz=FuzzAtomicMoveWalk ./internal/lookahead.
func FuzzAtomicMoveWalk(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{7, 7, 7, 7})
	f.Add([]byte{0})
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7})
	h := hier.MustGrid(geo.MustGridTiling(6, 6), 2)
	tl := h.Tiling()
	f.Fuzz(func(t *testing.T, walk []byte) {
		if len(walk) > 64 {
			walk = walk[:64]
		}
		cur := geo.RegionID(0)
		s := Init(h, cur)
		trail := []geo.RegionID{cur}
		for i, b := range walk {
			nbrs := tl.Neighbors(cur)
			next := nbrs[int(b)%len(nbrs)]
			before := s.Clone()
			out, err := AtomicMove(s, cur, next)
			if err != nil {
				t.Fatalf("step %d (%v -> %v): %v", i, cur, next, err)
			}
			if diff := Equal(s, before); diff != "" {
				t.Fatalf("step %d: AtomicMove modified its input: %s", i, diff)
			}
			if err := out.IsConsistent(next); err != nil {
				t.Fatalf("step %d (%v -> %v): %v", i, cur, next, err)
			}
			// lookAhead of a consistent state is the identity.
			if diff := Equal(LookAhead(out), out); diff != "" {
				t.Fatalf("step %d: lookAhead changed a consistent state: %s", i, diff)
			}
			s, cur = out, next
			trail = append(trail, next)
		}
		assertFoldEqualsSteps(t, h, trail, s)
	})
}

// assertFoldEqualsSteps requires AtomicMoveSeq's in-place fold over trail
// to end in the state step-by-step AtomicMove reached.
func assertFoldEqualsSteps(t *testing.T, h *hier.Hierarchy, trail []geo.RegionID, stepped *State) {
	t.Helper()
	folded, err := AtomicMoveSeq(h, trail)
	if err != nil {
		t.Fatalf("AtomicMoveSeq over %v: %v", trail, err)
	}
	if diff := Equal(folded, stepped); diff != "" {
		t.Fatalf("AtomicMoveSeq over %v differs from step-by-step AtomicMove: %s", trail, diff)
	}
}

// FuzzLookAheadTransits throws arbitrary (type-correct) single grow/shrink
// transit sets at lookAhead and requires it to terminate without panicking
// and to be idempotent.
func FuzzLookAheadTransits(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint8(2), true)
	f.Add(uint8(5), uint8(0), uint8(9), false)
	h := hier.MustGrid(geo.MustGridTiling(4, 4), 2)
	f.Fuzz(func(t *testing.T, startSeed, fromSeed, toSeed uint8, grow bool) {
		start := geo.RegionID(int(startSeed) % h.Tiling().NumRegions())
		s := Init(h, start)
		// Inject one transit between arbitrary clusters of the same or
		// adjacent levels; lookAhead must stay total and idempotent even
		// on states atomicMove would never produce.
		from := hier.ClusterID(int(fromSeed) % h.NumClusters())
		to := hier.ClusterID(int(toSeed) % h.NumClusters())
		kind := "grow"
		if !grow {
			kind = "shrink"
		}
		s.Transit = append(s.Transit, transitFor(kind, from, to))
		out := LookAhead(s)
		if diff := Equal(out, LookAhead(out)); diff != "" {
			t.Fatalf("lookAhead not idempotent under injected transit: %s", diff)
		}
	})
}

// transitFor builds a Transit for the fuzz harness.
func transitFor(kind string, from, to hier.ClusterID) tracker.Transit {
	return tracker.Transit{Kind: kind, From: from, To: to}
}
