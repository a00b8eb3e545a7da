package lookahead

import (
	"fmt"

	"vinestalk/internal/evader"
	"vinestalk/internal/geo"
	"vinestalk/internal/hier"
)

// Init is the init function of §IV-C: the consistent state whose tracking
// path terminates at region u's level-0 cluster and is a vertical growth to
// level MAX (every path process points to its hierarchy parent).
func Init(h *hier.Hierarchy, u geo.RegionID) *State {
	s := NewState(h)
	leaf := h.Cluster(u, 0)
	s.C[leaf] = leaf
	cur := leaf
	for h.Level(cur) != h.MaxLevel() {
		par := h.Parent(cur)
		s.P[cur] = par
		s.C[par] = cur
		for _, nb := range h.Nbrs(cur) {
			s.Up[nb] = cur
		}
		cur = par
	}
	return s
}

// AtomicMove is the atomicMove function of §IV-C: it maps a consistent
// state and the evader's relocation from oldRegion to a neighboring
// newRegion to the next consistent state — the new branch grows vertically
// from the new level-0 cluster until it connects to the old path (directly,
// or by one lateral link to a parent-connected path neighbor), and the
// deserted suffix of the old path is cleaned. The input is not modified.
func AtomicMove(s *State, oldRegion, newRegion geo.RegionID) (*State, error) {
	out := s.Clone()
	if err := out.atomicMove(oldRegion, newRegion); err != nil {
		return nil, err
	}
	return out, nil
}

// atomicMove applies one atomicMove step to s in place; on error s is
// untouched.
func (s *State) atomicMove(oldRegion, newRegion geo.RegionID) error {
	h := s.H
	if !geo.AreNeighbors(h.Tiling(), oldRegion, newRegion) {
		return fmt.Errorf("lookahead: atomicMove target %v is not a neighbor of %v", newRegion, oldRegion)
	}
	max := h.MaxLevel()

	// Grow phase: the new level-0 cluster joins, then climbs vertically.
	// At each level, a set nbrptup (pointing at a parent-connected path
	// process, per the consistent-state invariant) short-circuits the climb
	// with a single lateral link.
	leaf := h.Cluster(newRegion, 0)
	s.C[leaf] = leaf
	cur := leaf
	for s.P[cur] == hier.NoCluster && h.Level(cur) != max {
		if s.Up[cur] != hier.NoCluster {
			s.P[cur] = s.Up[cur]
			for _, nb := range h.Nbrs(cur) {
				s.Down[nb] = cur
			}
		} else {
			s.P[cur] = h.Parent(cur)
			for _, nb := range h.Nbrs(cur) {
				s.Up[nb] = cur
			}
		}
		s.C[s.P[cur]] = cur
		cur = s.P[cur]
	}

	// Shrink phase: the old leaf leaves the path (unless the new branch
	// already re-adopted it), and the deserted suffix unwinds upward until
	// it merges into the live path.
	old := h.Cluster(oldRegion, 0)
	if s.C[old] == old {
		s.C[old] = hier.NoCluster
	}
	cur = old
	for s.C[cur] == hier.NoCluster && s.P[cur] != hier.NoCluster && h.Level(cur) != max {
		for _, nb := range h.Nbrs(cur) {
			if s.Up[nb] == cur {
				s.Up[nb] = hier.NoCluster
			}
			if s.Down[nb] == cur {
				s.Down[nb] = hier.NoCluster
			}
		}
		if s.C[s.P[cur]] == cur {
			next := s.P[cur]
			s.P[cur] = hier.NoCluster
			s.C[next] = hier.NoCluster
			cur = next
		} else {
			s.P[cur] = hier.NoCluster
		}
	}
	return nil
}

// AtomicMoveSeq is the derived function of §IV-C: starting from
// init(moves[0]), fold atomicMove over the remaining locations. The fold
// runs in place on that one state, so a move costs the clusters it touches,
// not a copy of the hierarchy.
func AtomicMoveSeq(h *hier.Hierarchy, moves []geo.RegionID) (*State, error) {
	if len(moves) == 0 {
		return nil, fmt.Errorf("lookahead: empty move sequence")
	}
	s := Init(h, moves[0])
	for i := 1; i < len(moves); i++ {
		if err := s.atomicMove(moves[i-1], moves[i]); err != nil {
			return nil, fmt.Errorf("lookahead: move %d: %w", i, err)
		}
	}
	return s, nil
}

// Fold is atomicMoveSeq kept as a running state: init(start) when it is
// made, then atomicMove applied in place for each move it is told of. It
// is the Theorem 4.8 reference of a running execution. Its state equals
// AtomicMoveSeq over the moves so far, yet it keeps no record of them, and
// a move costs the clusters it touches and allocates nothing, so a check
// costs the same after the millionth move as after the first.
type Fold struct {
	s   *State
	at  geo.RegionID
	err error
}

// newFold starts a fold at init(start).
func newFold(h *hier.Hierarchy, start geo.RegionID) *Fold {
	return &Fold{s: Init(h, start), at: start}
}

// Follow starts a fold at the evader's current region and registers it as
// the evader's observer, so it steps on every later move. The fold of a
// history must start where the history does: call Follow before the
// evader's first move.
func Follow(h *hier.Hierarchy, ev *evader.Evader) *Fold {
	f := newFold(h, ev.Region())
	ev.Observe(f.Move)
	return f
}

// Move applies atomicMove(from, to) in place; it is an evader.Observer. A
// move that does not leave the region the fold is at, or does not enter a
// neighbour of it, stops the fold: State reports the error from then on.
func (f *Fold) Move(from, to geo.RegionID) {
	if f.err != nil {
		return
	}
	if from != f.at {
		f.err = fmt.Errorf("lookahead: fold at %v told of a move from %v", f.at, from)
		return
	}
	if err := f.s.atomicMove(from, to); err != nil {
		f.err = err
		return
	}
	f.at = to
}

// State returns atomicMoveSeq over the moves folded so far, or the error
// that stopped the fold. The state is the fold's own and changes with the
// next move: compare it, do not keep or modify it.
func (f *Fold) State() (*State, error) { return f.s, f.err }
