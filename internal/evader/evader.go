// Package evader models the mobile object being tracked and the GPS-based
// detection inputs of paper §III: the Evader resides at exactly one region
// and nondeterministically moves to neighboring regions; the (augmented)
// GPS service delivers a move input to clients exactly when the evader
// enters their region and a left input when it leaves.
//
// The package also provides the mobility models that drive the evaluation
// workloads: random walk, random waypoint, a boundary oscillator (the
// dithering workload), and straight-line sweeps.
package evader

import (
	"fmt"
	"math/rand"

	"vinestalk/internal/geo"
	"vinestalk/internal/sim"
)

// Event is a GPS detection input kind.
type Event int

// Detection inputs delivered to clients of the affected regions.
const (
	// EventLeft fires at the region the evader just left.
	EventLeft Event = iota + 1
	// EventMove fires at the region the evader just entered.
	EventMove
)

// String names the event.
func (e Event) String() string {
	switch e {
	case EventLeft:
		return "left"
	case EventMove:
		return "move"
	default:
		return fmt.Sprintf("Event(%d)", int(e))
	}
}

// Sink receives the GPS detection inputs for a region. The tracking
// service's client algorithm is the sink: it relays grow/shrink messages to
// the region's level-0 cluster.
type Sink func(u geo.RegionID, ev Event)

// Observer sees one region change of an evader: it left from and entered
// to, a neighbour of from.
type Observer func(from, to geo.RegionID)

// Evader is the mobile object. Moves are driven either directly (MoveTo)
// or by a Walker running a mobility model. It keeps only its current
// region: the path it has walked is not recorded. A checker that needs
// the history folds it as the moves happen (lookahead.Follow), and a test
// that wants the path itself records it with Observe.
type Evader struct {
	tiling    geo.Tiling
	region    geo.RegionID
	sink      Sink
	distance  int
	observers []Observer
}

// New places the evader at start and delivers the initial move input. The
// sink must be non-nil.
func New(tiling geo.Tiling, start geo.RegionID, sink Sink) (*Evader, error) {
	e, err := NewPlaced(tiling, start, sink)
	if err != nil {
		return nil, err
	}
	sink(start, EventMove)
	return e, nil
}

// NewPlaced places the evader at start WITHOUT delivering the initial move
// input: the caller plants the equivalent detection state out of band. The
// bulk-attach path (tracker.Network.AttachObjects) uses it — one grow
// cascade per distinct start region stands in for every object placed
// there, so the per-object GPS inputs must not fire. Subsequent MoveTo
// calls report normally.
func NewPlaced(tiling geo.Tiling, start geo.RegionID, sink Sink) (*Evader, error) {
	if !tiling.Contains(start) {
		return nil, fmt.Errorf("evader: start region %v outside tiling", start)
	}
	if sink == nil {
		return nil, fmt.Errorf("evader: nil sink")
	}
	return &Evader{tiling: tiling, region: start, sink: sink}, nil
}

// Region returns the evader's current region.
func (e *Evader) Region() geo.RegionID { return e.region }

// TotalDistance returns the number of region transitions so far (each move
// is to a neighboring region, so this is the total distance traveled in the
// paper's sense).
func (e *Evader) TotalDistance() int { return e.distance }

// Observe registers o to see every later region change, after the evader
// has moved and before the sink receives the left and move inputs.
// Observers run in the order they were registered.
func (e *Evader) Observe(o Observer) { e.observers = append(e.observers, o) }

// MoveTo relocates the evader to a neighboring region, triggering the left
// input at the old region and the move input at the new one (in that
// order, at the same instant).
func (e *Evader) MoveTo(v geo.RegionID) error {
	if v == e.region {
		return nil
	}
	if !geo.AreNeighbors(e.tiling, e.region, v) {
		return fmt.Errorf("evader: %v is not a neighbor of %v", v, e.region)
	}
	old := e.region
	e.region = v
	e.distance++
	for _, o := range e.observers {
		o(old, v)
	}
	e.sink(old, EventLeft)
	e.sink(v, EventMove)
	return nil
}

// FollowPath replays a region path (each step a neighbor of the previous),
// issuing one MoveTo per element. The path must start at a neighbor of the
// current region (or at the current region, which is skipped).
func (e *Evader) FollowPath(path []geo.RegionID) error {
	for _, v := range path {
		if err := e.MoveTo(v); err != nil {
			return err
		}
	}
	return nil
}

// Model chooses the evader's next region. Implementations must return the
// current region or one of its neighbors.
type Model interface {
	Next(rng *rand.Rand, cur geo.RegionID) geo.RegionID
}

// RandomWalk moves to a uniformly random neighboring region each step.
type RandomWalk struct {
	Tiling geo.Tiling
}

// Next returns a uniformly random neighbor of cur.
func (m RandomWalk) Next(rng *rand.Rand, cur geo.RegionID) geo.RegionID {
	nbrs := m.Tiling.Neighbors(cur)
	if len(nbrs) == 0 {
		return cur
	}
	return nbrs[rng.Intn(len(nbrs))]
}

// Waypoint picks a random destination region and walks a shortest path to
// it, then picks a new destination — the classic random-waypoint model on
// the region graph.
type Waypoint struct {
	Graph  *geo.Graph
	target geo.RegionID
	armed  bool
}

// Next advances one hop toward the current waypoint, re-drawing the
// waypoint whenever it is reached.
func (m *Waypoint) Next(rng *rand.Rand, cur geo.RegionID) geo.RegionID {
	n := m.Graph.Tiling().NumRegions()
	for !m.armed || m.target == cur {
		m.target = geo.RegionID(rng.Intn(n))
		m.armed = true
	}
	next := m.Graph.NextHop(cur, m.target)
	if next == geo.NoRegion {
		return cur
	}
	return next
}

// PingPong walks a fixed path forward and backward forever. With a
// two-region path straddling a top-level cluster boundary it is exactly the
// "dithering" adversary of §IV: a small oscillation that naive hierarchical
// trackers turn into repeated global updates.
type PingPong struct {
	Path []geo.RegionID

	pos     int
	dir     int
	started bool
}

// Next returns the next region along the ping-pong path. If the evader is
// not yet on the path, the first step enters it at Path[0] (which must then
// be a neighbor of the current region).
func (m *PingPong) Next(rng *rand.Rand, cur geo.RegionID) geo.RegionID {
	if len(m.Path) == 0 {
		return cur
	}
	if !m.started {
		m.started = true
		m.pos = 0
		m.dir = 1
		if cur != m.Path[0] {
			return m.Path[0]
		}
	}
	if len(m.Path) < 2 {
		return cur
	}
	next := m.pos + m.dir
	if next < 0 || next >= len(m.Path) {
		m.dir = -m.dir
		next = m.pos + m.dir
	}
	m.pos = next
	return m.Path[m.pos]
}

// Stationary never moves.
type Stationary struct{}

// Next returns cur.
func (Stationary) Next(rng *rand.Rand, cur geo.RegionID) geo.RegionID { return cur }

// Walker drives an evader with a mobility model at a fixed period. Its
// goroutine-free design matches the simulation kernel: each step is an
// event, and Stop cancels the next one.
type Walker struct {
	k      *sim.Kernel
	e      *Evader
	model  Model
	period sim.Time
	left   int
	timer  *sim.Timer
	onStep func()
}

// StartWalker begins moving the evader every period, for at most maxSteps
// steps (maxSteps < 0 means forever). onStep, if non-nil, runs after every
// step.
func StartWalker(k *sim.Kernel, e *Evader, m Model, period sim.Time, maxSteps int, onStep func()) *Walker {
	w := &Walker{k: k, e: e, model: m, period: period, left: maxSteps, onStep: onStep}
	w.timer = sim.NewTimer(k, w.step)
	w.timer.SetAfter(period)
	return w
}

// Stop halts the walker before its next step.
func (w *Walker) Stop() { w.timer.Clear() }

// StepsRemaining returns how many steps remain (negative means unlimited).
func (w *Walker) StepsRemaining() int { return w.left }

func (w *Walker) step() {
	if w.left == 0 {
		return
	}
	if w.left > 0 {
		w.left--
	}
	next := w.model.Next(w.k.Rand(), w.e.Region())
	if next != w.e.Region() {
		// The model contract guarantees next is a neighbor; a violation is
		// a programming error surfaced by MoveTo's error.
		if err := w.e.MoveTo(next); err != nil {
			panic(fmt.Sprintf("evader: mobility model produced illegal step: %v", err))
		}
	}
	if w.onStep != nil {
		w.onStep()
	}
	if w.left != 0 {
		w.timer.SetAfter(w.period)
	}
}

// Momentum is a Gauss-Markov-flavored model on the region graph: the
// evader tends to keep its previous heading, turning with probability
// TurnProb (default 0.25 when zero) and otherwise repeating the last
// displacement when the grid allows it. On non-grid tilings it degrades
// to a random walk.
type Momentum struct {
	Tiling   geo.Tiling
	TurnProb float64

	lastFrom geo.RegionID
	armed    bool
}

// Next keeps the previous heading with probability 1−TurnProb.
func (m *Momentum) Next(rng *rand.Rand, cur geo.RegionID) geo.RegionID {
	nbrs := m.Tiling.Neighbors(cur)
	if len(nbrs) == 0 {
		return cur
	}
	turn := m.TurnProb
	if turn == 0 {
		turn = 0.25
	}
	g, isGrid := m.Tiling.(*geo.GridTiling)
	if m.armed && isGrid && rng.Float64() >= turn {
		// Repeat the last displacement.
		px, py := g.Coord(m.lastFrom)
		cx, cy := g.Coord(cur)
		if next := g.RegionAt(cx+(cx-px), cy+(cy-py)); next != geo.NoRegion && next != cur {
			m.lastFrom = cur
			return next
		}
	}
	next := nbrs[rng.Intn(len(nbrs))]
	m.lastFrom = cur
	m.armed = true
	return next
}

// PauseWaypoint is the random-waypoint model with pause times: on
// reaching each waypoint, the evader rests for PauseSteps steps before
// drawing the next destination.
type PauseWaypoint struct {
	Graph      *geo.Graph
	PauseSteps int

	target  geo.RegionID
	armed   bool
	resting int
}

// Next advances toward the waypoint, pausing at each one.
func (m *PauseWaypoint) Next(rng *rand.Rand, cur geo.RegionID) geo.RegionID {
	if m.resting > 0 {
		m.resting--
		return cur
	}
	n := m.Graph.Tiling().NumRegions()
	for !m.armed || m.target == cur {
		if m.armed {
			m.resting = m.PauseSteps
		}
		m.target = geo.RegionID(rng.Intn(n))
		m.armed = true
		if m.resting > 0 {
			m.resting--
			return cur
		}
	}
	next := m.Graph.NextHop(cur, m.target)
	if next == geo.NoRegion {
		return cur
	}
	return next
}
