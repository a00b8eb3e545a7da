package evader

import (
	"math/rand"
	"testing"
	"time"

	"vinestalk/internal/geo"
	"vinestalk/internal/sim"
)

type rec struct {
	regions []geo.RegionID
	events  []Event
}

func (r *rec) sink(u geo.RegionID, ev Event) {
	r.regions = append(r.regions, u)
	r.events = append(r.events, ev)
}

func TestNewDeliversInitialMove(t *testing.T) {
	g := geo.MustGridTiling(3, 3)
	var r rec
	e, err := New(g, 4, r.sink)
	if err != nil {
		t.Fatal(err)
	}
	if e.Region() != 4 {
		t.Errorf("Region = %v, want r4", e.Region())
	}
	if len(r.events) != 1 || r.events[0] != EventMove || r.regions[0] != 4 {
		t.Fatalf("initial events = %v at %v", r.events, r.regions)
	}
	if _, err := New(g, geo.RegionID(99), r.sink); err == nil {
		t.Error("New accepted start outside tiling")
	}
	if _, err := New(g, 0, nil); err == nil {
		t.Error("New accepted nil sink")
	}
}

func TestMoveToEmitsLeftThenMove(t *testing.T) {
	g := geo.MustGridTiling(3, 3)
	var r rec
	e, err := New(g, 4, r.sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.MoveTo(5); err != nil {
		t.Fatal(err)
	}
	if len(r.events) != 3 {
		t.Fatalf("events = %v", r.events)
	}
	if r.events[1] != EventLeft || r.regions[1] != 4 {
		t.Errorf("second event = %v at %v, want left at r4", r.events[1], r.regions[1])
	}
	if r.events[2] != EventMove || r.regions[2] != 5 {
		t.Errorf("third event = %v at %v, want move at r5", r.events[2], r.regions[2])
	}
	if e.TotalDistance() != 1 {
		t.Errorf("TotalDistance = %d, want 1", e.TotalDistance())
	}
}

func TestMoveToRejectsNonNeighbor(t *testing.T) {
	g := geo.MustGridTiling(3, 3)
	var r rec
	e, _ := New(g, 0, r.sink)
	if err := e.MoveTo(8); err == nil {
		t.Fatal("MoveTo accepted a non-neighbor")
	}
	if err := e.MoveTo(0); err != nil { // self-move is a no-op
		t.Fatal(err)
	}
	if e.TotalDistance() != 0 {
		t.Errorf("TotalDistance = %d after no-ops, want 0", e.TotalDistance())
	}
}

// The evader records no trail; a caller that wants the path observes it.
// Observers see each region change in order, before the sink's inputs.
func TestFollowPathAndTrail(t *testing.T) {
	g := geo.MustGridTiling(4, 1)
	var r rec
	e, _ := New(g, 0, r.sink)
	trail := []geo.RegionID{e.Region()}
	sinkSeen := 0
	e.Observe(func(from, to geo.RegionID) {
		if from != trail[len(trail)-1] {
			t.Errorf("observed a move from %v, but the evader was at %v", from, trail[len(trail)-1])
		}
		sinkSeen = len(r.events)
		trail = append(trail, to)
	})
	if err := e.FollowPath([]geo.RegionID{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	want := []geo.RegionID{0, 1, 2, 3}
	if len(trail) != len(want) {
		t.Fatalf("Trail = %v, want %v", trail, want)
	}
	for i := range want {
		if trail[i] != want[i] {
			t.Fatalf("Trail = %v, want %v", trail, want)
		}
	}
	if sinkSeen != 1+2*2 {
		t.Errorf("the last observer call saw %d sink inputs, want 5 (it runs before the move's own left and move)", sinkSeen)
	}
	if e.TotalDistance() != 3 {
		t.Errorf("TotalDistance = %d, want 3", e.TotalDistance())
	}
	if err := e.FollowPath([]geo.RegionID{0}); err == nil {
		t.Error("FollowPath accepted a jump (r3 -> r0)")
	}
	if err := e.MoveTo(3); err != nil || len(trail) != len(want) {
		t.Errorf("a move to the current region was observed: %v (err %v)", trail, err)
	}
}

// With no observer, a move keeps nothing: it allocates nothing.
func TestMoveToKeepsNoHistory(t *testing.T) {
	g := geo.MustGridTiling(4, 1)
	e, _ := NewPlaced(g, 0, func(geo.RegionID, Event) {})
	if allocs := testing.AllocsPerRun(100, func() {
		_ = e.MoveTo(1 - e.Region())
	}); allocs != 0 {
		t.Errorf("MoveTo allocates %v times per move, want 0", allocs)
	}
}

func TestRandomWalkStaysOnNeighbors(t *testing.T) {
	g := geo.MustGridTiling(5, 5)
	m := RandomWalk{Tiling: g}
	rng := rand.New(rand.NewSource(1))
	cur := geo.RegionID(12)
	for i := 0; i < 200; i++ {
		next := m.Next(rng, cur)
		if next != cur && !geo.AreNeighbors(g, cur, next) {
			t.Fatalf("random walk jumped %v -> %v", cur, next)
		}
		cur = next
	}
}

func TestRandomWalkSingleRegion(t *testing.T) {
	g := geo.MustGridTiling(1, 1)
	m := RandomWalk{Tiling: g}
	if got := m.Next(rand.New(rand.NewSource(1)), 0); got != 0 {
		t.Errorf("Next on isolated region = %v, want r0", got)
	}
}

func TestWaypointReachesTargets(t *testing.T) {
	g := geo.MustGridTiling(6, 6)
	m := &Waypoint{Graph: geo.NewGraph(g)}
	rng := rand.New(rand.NewSource(2))
	cur := geo.RegionID(0)
	visited := map[geo.RegionID]bool{cur: true}
	for i := 0; i < 500; i++ {
		next := m.Next(rng, cur)
		if next != cur && !geo.AreNeighbors(g, cur, next) {
			t.Fatalf("waypoint jumped %v -> %v", cur, next)
		}
		cur = next
		visited[cur] = true
	}
	if len(visited) < 10 {
		t.Errorf("waypoint explored only %d regions in 500 steps", len(visited))
	}
}

func TestPingPongOscillates(t *testing.T) {
	g := geo.MustGridTiling(4, 1)
	m := &PingPong{Path: []geo.RegionID{1, 2}}
	rng := rand.New(rand.NewSource(1))
	cur := geo.RegionID(1)
	var seq []geo.RegionID
	for i := 0; i < 6; i++ {
		cur = m.Next(rng, cur)
		seq = append(seq, cur)
	}
	want := []geo.RegionID{2, 1, 2, 1, 2, 1}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("ping-pong sequence = %v, want %v", seq, want)
		}
	}
	_ = g
	// Degenerate path: stays put.
	m2 := &PingPong{Path: []geo.RegionID{3}}
	if got := m2.Next(rng, 3); got != 3 {
		t.Errorf("degenerate ping-pong moved to %v", got)
	}
}

func TestStationary(t *testing.T) {
	if got := (Stationary{}).Next(rand.New(rand.NewSource(1)), 7); got != 7 {
		t.Errorf("Stationary moved to %v", got)
	}
}

func TestWalkerDrivesEvader(t *testing.T) {
	k := sim.New(5)
	g := geo.MustGridTiling(8, 1)
	var r rec
	e, _ := New(g, 0, r.sink)
	steps := 0
	w := StartWalker(k, e, &PingPong{Path: []geo.RegionID{1, 2, 3, 4, 5, 6, 7}}, 10*time.Millisecond, 5, func() { steps++ })
	k.RunFor(time.Second)
	if steps != 5 {
		t.Fatalf("walker took %d steps, want 5", steps)
	}
	if e.TotalDistance() != 5 {
		t.Errorf("TotalDistance = %d, want 5", e.TotalDistance())
	}
	if w.StepsRemaining() != 0 {
		t.Errorf("StepsRemaining = %d, want 0", w.StepsRemaining())
	}
}

func TestWalkerStop(t *testing.T) {
	k := sim.New(5)
	g := geo.MustGridTiling(8, 1)
	var r rec
	e, _ := New(g, 0, r.sink)
	w := StartWalker(k, e, RandomWalk{Tiling: g}, 10*time.Millisecond, -1, nil)
	k.RunFor(35 * time.Millisecond)
	moved := e.TotalDistance()
	w.Stop()
	k.RunFor(time.Second)
	if e.TotalDistance() != moved {
		t.Errorf("walker kept moving after Stop: %d -> %d", moved, e.TotalDistance())
	}
}

func TestEventString(t *testing.T) {
	if EventMove.String() != "move" || EventLeft.String() != "left" {
		t.Error("Event.String misnames events")
	}
	if Event(0).String() == "" {
		t.Error("unknown event should still stringify")
	}
}

func TestMomentumKeepsHeading(t *testing.T) {
	g := geo.MustGridTiling(32, 32)
	m := &Momentum{Tiling: g, TurnProb: 0.1}
	rng := rand.New(rand.NewSource(4))
	cur := g.RegionAt(16, 16)
	straight, steps := 0, 0
	var lastDx, lastDy int
	for i := 0; i < 200; i++ {
		next := m.Next(rng, cur)
		if next != cur && !geo.AreNeighbors(g, cur, next) {
			t.Fatalf("momentum jumped %v -> %v", cur, next)
		}
		cx, cy := g.Coord(cur)
		nx, ny := g.Coord(next)
		dx, dy := nx-cx, ny-cy
		if i > 0 && dx == lastDx && dy == lastDy {
			straight++
		}
		steps++
		lastDx, lastDy = dx, dy
		cur = next
	}
	// With 10% turn probability the walk should mostly keep heading.
	if straight < steps/2 {
		t.Errorf("only %d/%d steps kept heading; momentum not working", straight, steps)
	}
}

func TestMomentumSingleRegion(t *testing.T) {
	g := geo.MustGridTiling(1, 1)
	m := &Momentum{Tiling: g}
	if got := m.Next(rand.New(rand.NewSource(1)), 0); got != 0 {
		t.Errorf("momentum moved on isolated region: %v", got)
	}
}

func TestPauseWaypointRests(t *testing.T) {
	g := geo.MustGridTiling(6, 6)
	m := &PauseWaypoint{Graph: geo.NewGraph(g), PauseSteps: 3}
	rng := rand.New(rand.NewSource(8))
	cur := geo.RegionID(0)
	pauses, moves := 0, 0
	for i := 0; i < 300; i++ {
		next := m.Next(rng, cur)
		if next == cur {
			pauses++
		} else {
			if !geo.AreNeighbors(g, cur, next) {
				t.Fatalf("pause-waypoint jumped %v -> %v", cur, next)
			}
			moves++
		}
		cur = next
	}
	if pauses == 0 {
		t.Error("pause-waypoint never paused")
	}
	if moves == 0 {
		t.Error("pause-waypoint never moved")
	}
}
