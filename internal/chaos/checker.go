package chaos

import (
	"fmt"

	"vinestalk/internal/evader"
	"vinestalk/internal/geo"
	"vinestalk/internal/lookahead"
	"vinestalk/internal/sim"
	"vinestalk/internal/tracker"
)

// maxRecordedViolations caps the stored violation descriptions (the count
// keeps growing past it).
const maxRecordedViolations = 16

// Checker replays a perturbed execution against the atomic specification:
// every found output must name a region the evader occupied between the
// find input and the found output (the atomic find semantics behind
// Theorem 5.1), and at quiescent points lookAhead(captured state) must
// equal atomicMoveSeq(moves so far) (Theorem 4.8). The checker observes
// the evader itself: it logs each move's time and folds the spec state
// (lookahead.Fold) as the moves happen, so the evader keeps no trail. Drive
// it from the experiment: create it before the evader's first move, wire
// OnFound into the network's found callback, and call CheckQuiescent when
// the network is move-quiescent.
type Checker struct {
	k    *sim.Kernel
	net  *tracker.Network
	spec *lookahead.Fold

	occ        []occSample
	count      int
	violations []string
}

// occSample says the evader occupied region u from time at until the next
// sample's time (inclusive on both ends: at the instant of a move both the
// old and the new region count as occupied).
type occSample struct {
	at sim.Time
	u  geo.RegionID
}

// NewChecker starts checking the given network and evader, sampling the
// evader's current position as its initial occupancy and as the start of
// the spec fold. Create it before the evader's first move: the fold of
// the moves starts where they do.
func NewChecker(k *sim.Kernel, net *tracker.Network, ev *evader.Evader) *Checker {
	c := &Checker{k: k, net: net}
	c.occ = append(c.occ, occSample{at: k.Now(), u: ev.Region()})
	c.spec = lookahead.Follow(net.Hierarchy(), ev)
	ev.Observe(func(_, to geo.RegionID) {
		c.occ = append(c.occ, occSample{at: c.k.Now(), u: to})
	})
	return c
}

// OnFound replays one found output against the atomic find spec. Wire it
// into the network's found callback (it runs at the found output's time).
func (c *Checker) OnFound(r tracker.FindResult) {
	issued, ok := c.net.FindIssued(r.ID)
	if !ok {
		c.violate("found for unknown find %d at %v", r.ID, r.FoundAt)
		return
	}
	now := c.k.Now()
	if !c.occupiedDuring(issued, now, r.FoundAt) {
		c.violate("find %d (issued %v, found %v): evader never occupied %v in that window",
			r.ID, issued, now, r.FoundAt)
	}
}

// occupiedDuring reports whether the evader occupied region u at some
// instant of the closed interval [from, to].
func (c *Checker) occupiedDuring(from, to sim.Time, u geo.RegionID) bool {
	for i, s := range c.occ {
		end := sim.Forever
		if i+1 < len(c.occ) {
			end = c.occ[i+1].at
		}
		if s.u == u && s.at <= to && end >= from {
			return true
		}
	}
	return false
}

// CheckQuiescent checks Theorem 4.8 at a quiescent point: capture the live
// state, apply lookAhead, and compare with the spec folded over the
// evader's moves. Call it only when the network is move-quiescent and no
// protocol message has been lost (always-alive VSAs); after crashes use
// the stabilization probes instead.
func (c *Checker) CheckQuiescent() {
	snap := lookahead.Capture(c.net)
	if err := snap.CheckInvariants(); err != nil {
		c.violate("invariants: %v", err)
	}
	got := lookahead.LookAhead(snap)
	want, err := c.spec.State()
	if err != nil {
		c.violate("atomicMoveSeq: %v", err)
		return
	}
	if diff := lookahead.Equal(got, want); diff != "" {
		c.violate("lookAhead(state) ≠ atomicMoveSeq(moves) at %v: %s", c.k.Now(), diff)
	}
}

// Count returns the number of violations detected so far.
func (c *Checker) Count() int { return c.count }

// Violations returns the recorded violation descriptions (capped at
// maxRecordedViolations; Count has the true total).
func (c *Checker) Violations() []string {
	return append([]string(nil), c.violations...)
}

func (c *Checker) violate(format string, args ...any) {
	c.count++
	if len(c.violations) < maxRecordedViolations {
		c.violations = append(c.violations, fmt.Sprintf(format, args...))
	}
}
