package baseline

import (
	"vinestalk/internal/geo"
	"vinestalk/internal/metrics"
	"vinestalk/internal/sim"
)

// Flood is the structure-free baseline: moves cost nothing, and a find
// runs an expanding-ring search — flood to radius 1, then 2, 4, 8, …
// doubling until the object's region is covered. Every region inside the
// final radius is contacted at least once per round, so a find at distance
// d costs Θ(d²) work on a grid (the ball of radius d has Θ(d²) regions).
type Flood struct {
	k      *sim.Kernel
	g      *geo.Graph
	unit   sim.Time
	ledger *metrics.Ledger
	actual geo.RegionID
}

var _ Tracker = (*Flood)(nil)

// NewFlood creates the baseline with the object starting at start.
func NewFlood(k *sim.Kernel, g *geo.Graph, unit sim.Time, start geo.RegionID) (*Flood, error) {
	if err := validRegion(g, start, "start"); err != nil {
		return nil, err
	}
	return &Flood{k: k, g: g, unit: unit, ledger: metrics.NewLedger(), actual: start}, nil
}

// Name implements Tracker.
func (f *Flood) Name() string { return "flood" }

// Ledger implements Tracker.
func (f *Flood) Ledger() *metrics.Ledger { return f.ledger }

// Move implements Tracker: flooding keeps no state, so moves are free. A
// move to a region outside the tiling is refused, as NewFlood refuses such a
// start: the object stays where it was.
func (f *Flood) Move(from, to geo.RegionID) {
	if f.g.Tiling().Contains(to) {
		f.actual = to
	}
}

// Find implements Tracker: rounds of flooding with doubled radius until
// the object is inside the flooded ball; each round costs one message per
// covered region and takes a radius round trip of time. A find from a region
// outside the tiling is refused: nothing is flooded and done never runs.
func (f *Flood) Find(origin geo.RegionID, done func(geo.RegionID)) {
	if f.g.Tiling().Contains(origin) {
		f.round(origin, 1, done)
	}
}

func (f *Flood) round(origin geo.RegionID, radius int, done func(geo.RegionID)) {
	covered := f.g.RegionsWithinCached(origin, radius)
	// One broadcast per covered region (the flood relays hop by hop), each
	// traveling one hop.
	for range covered {
		charge(f.ledger, "flood", 1)
	}
	rtt := latency(f.unit, 2*radius)
	target := f.actual
	d := f.g.Distance(origin, target)
	hit := d >= 0 && d <= radius // -1: no such region, so no ball covers it
	f.k.Schedule(rtt, func() {
		if hit && f.actual == target {
			done(target)
			return
		}
		if hit {
			// The object moved out during the round trip; widen anyway.
			f.round(origin, radius*2, done)
			return
		}
		f.round(origin, radius*2, done)
	})
}
