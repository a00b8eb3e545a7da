// Package emul implements the Virtual Stationary Automata *emulation*
// algorithm that the paper imports from Dolev, Gilbert, Lahiani, Lynch &
// Nolte ("Timed virtual stationary automata for mobile networks", refs
// [7], [6]): each region's VSA is a deterministic timed machine whose
// state lives in the memories of the physical mobile nodes currently in
// the region, with one node (the leader) executing the machine and the
// rest mirroring it so the VSA survives node churn.
//
// The emulator here is leader-sequenced replicated execution:
//
//   - inputs for a region's VSA are broadcast locally and buffered by all
//     nodes in the region;
//   - the leader (lowest-id present node) assigns each input a sequence
//     number, executes the program, emits its outputs, and broadcasts a
//     commit record; followers apply committed inputs to their replicas
//     in order;
//   - a joining node asks for a state checkpoint and mirrors from there;
//   - when the leader leaves or fails, the next-lowest node promotes
//     itself, re-executes any buffered-but-uncommitted inputs in
//     deterministic order, and continues — no input is lost while the
//     region stays occupied;
//   - if the region empties, the VSA fails (its state is lost with the
//     nodes); when nodes return, it restarts from the program's initial
//     state after t_restart, exactly the §II-C.2 failure semantics that
//     internal/vsa exposes abstractly.
//
// The package demonstrates that the abstract layer the tracker runs on is
// implementable over unreliable mobile nodes, and measures the emulation
// lag that the paper's parameter e abstracts: tests drive the same
// program through this emulator and through a direct (oracle) execution
// and require identical output sequences, with per-output lag bounded by
// the configured e.
package emul

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"vinestalk/internal/geo"
	"vinestalk/internal/sim"
)

// NodeID identifies a physical mobile node.
type NodeID int

// String returns a compact textual form.
func (n NodeID) String() string { return fmt.Sprintf("n%d", int(n)) }

// Program is the deterministic machine emulated for a region, taking
// inputs of type I and emitting outputs of type O. State is a byte encoding
// so replicas and checkpoints are plain copies; Step must be a pure
// function of (state, input).
//
// The outputs Step returns may live in a buffer the program reuses on its
// next Step: the emulator hands the leader's outputs to the sink, in order,
// before any replica runs Step again, and keeps none of them.
type Program[I, O any] interface {
	// Init returns the initial state for region u.
	Init(u geo.RegionID) []byte
	// Step applies one input, returning the successor state and any
	// outputs the machine emits.
	Step(state []byte, input Input[I]) (next []byte, outputs []O)
}

// Input is one message delivered to a region's VSA.
type Input[I any] struct {
	// ID orders concurrent inputs deterministically (assigned by the
	// emulator at submission, unique per region).
	ID uint64
	// Msg is the payload.
	Msg I
}

// node is one physical node's replica state for the region it occupies.
type node[I any] struct {
	id     NodeID
	region geo.RegionID // NoRegion when outside/failed
	alive  bool

	// Replica of the occupied region's VSA.
	hasReplica bool
	state      []byte
	buffered   map[uint64]Input[I] // inputs heard but not yet committed
	committed  map[uint64]uint64   // input id -> commit seq (dedup)
}

// Emulator runs the leader-based emulation of a Program[I, O] for every
// region of a tiling on the shared simulation kernel.
type Emulator[I, O any] struct {
	k        *sim.Kernel
	tiling   geo.Tiling
	prog     Program[I, O]
	delta    sim.Time // local broadcast delay between nodes in a region
	tRestart sim.Time

	nodes   map[NodeID]*node[I]
	regions []*regionState
	inputID uint64

	// members holds each region's alive nodes, ascending by id: a node
	// enters its region's slice on enter and leaves it on leave, which
	// every move and failure goes through.
	members [][]*node[I]

	sink   func(u geo.RegionID, out O)
	events func(ev RegionEvent)
}

// fireEvent invokes the region-events hook, if any.
func (e *Emulator[I, O]) fireEvent(ev RegionEvent) {
	if e.events != nil {
		e.events(ev)
	}
}

type regionState struct {
	alive      bool
	leader     NodeID // NoNode when failed
	restart    *sim.Timer
	nextCommit uint64
}

// NoNode is the sentinel leader value for a failed VSA.
const NoNode NodeID = -1

// RegionEventKind classifies the lifecycle transitions of one region's
// emulated VSA.
type RegionEventKind int

const (
	// LeaderChanged: the leader left or failed and a replica-holding
	// follower promoted itself; the machine continues without state loss.
	LeaderChanged RegionEventKind = iota
	// RegionFailed: no node (or no replica holder) remains — the VSA is
	// down and its state lost (§II-C.2 failure).
	RegionFailed
	// RegionRestarted: after t_restart with nodes present, the VSA is back
	// up from the program's initial state.
	RegionRestarted
)

// String returns a compact textual form.
func (k RegionEventKind) String() string {
	switch k {
	case LeaderChanged:
		return "leader-changed"
	case RegionFailed:
		return "region-failed"
	case RegionRestarted:
		return "region-restarted"
	}
	return fmt.Sprintf("RegionEventKind(%d)", int(k))
}

// RegionEvent reports one VSA lifecycle transition.
type RegionEvent struct {
	U      geo.RegionID
	Kind   RegionEventKind
	Leader NodeID // the new leader; NoNode on failure
}

// New creates an emulator for tiling t running prog at every region.
// delta is the intra-region broadcast delay (the dominant term of the
// emulation lag e) and tRestart the §II-C.2 restart delay.
//
// sink, if not nil, is the emulator's only output path: it is called for
// every output the leader commits, at commit time, in emission order. This
// is how a hosted program acts on the world: sends, timer arming and other
// external effects are returned from Step as outputs (keeping Step pure)
// and executed by the sink exactly once — follower replicas re-execute Step
// but their outputs are discarded. events, if not nil, is called for each
// VSA lifecycle transition (leader handoff, failure, restart); hosts use it
// to reconcile external state — dropping timers for a failed region,
// tracing handoffs.
func New[I, O any](k *sim.Kernel, t geo.Tiling, prog Program[I, O], delta, tRestart sim.Time,
	sink func(u geo.RegionID, out O), events func(ev RegionEvent)) *Emulator[I, O] {
	e := &Emulator[I, O]{
		k:        k,
		tiling:   t,
		prog:     prog,
		delta:    delta,
		tRestart: tRestart,
		nodes:    make(map[NodeID]*node[I]),
		regions:  make([]*regionState, t.NumRegions()),
		members:  make([][]*node[I], t.NumRegions()),
		sink:     sink,
		events:   events,
	}
	for u := range e.regions {
		rs := &regionState{leader: NoNode}
		u := geo.RegionID(u)
		rs.restart = sim.NewTimer(k, func() { e.completeRestart(u) })
		e.regions[int(u)] = rs
	}
	return e
}

// AddNode places a new physical node at region u.
func (e *Emulator[I, O]) AddNode(id NodeID, u geo.RegionID) error {
	if _, dup := e.nodes[id]; dup {
		return fmt.Errorf("emul: node %v already exists", id)
	}
	if !e.tiling.Contains(u) {
		return fmt.Errorf("emul: region %v outside tiling", u)
	}
	n := &node[I]{id: id, alive: true, region: geo.NoRegion}
	e.nodes[id] = n
	e.enter(n, u)
	return nil
}

// MoveNode relocates a node; its old region may lose its VSA, its new
// region may gain a replica (after a checkpoint transfer).
func (e *Emulator[I, O]) MoveNode(id NodeID, u geo.RegionID) error {
	n, ok := e.nodes[id]
	if !ok || !n.alive {
		return fmt.Errorf("emul: node %v not alive", id)
	}
	if !e.tiling.Contains(u) {
		return fmt.Errorf("emul: region %v outside tiling", u)
	}
	if n.region == u {
		return nil
	}
	e.leave(n)
	e.enter(n, u)
	return nil
}

// FailNode crash-stops a node (its replica is lost with it).
func (e *Emulator[I, O]) FailNode(id NodeID) {
	n, ok := e.nodes[id]
	if !ok || !n.alive {
		return
	}
	e.leave(n)
	n.alive = false
}

// Alive reports whether region u's emulated VSA is up.
func (e *Emulator[I, O]) Alive(u geo.RegionID) bool {
	return e.tiling.Contains(u) && e.regions[int(u)].alive
}

// Leader returns the node currently executing region u's VSA (NoNode if
// the VSA is down).
func (e *Emulator[I, O]) Leader(u geo.RegionID) NodeID {
	if !e.tiling.Contains(u) {
		return NoNode
	}
	return e.regions[int(u)].leader
}

// Members returns the alive nodes currently in region u, ascending.
func (e *Emulator[I, O]) Members(u geo.RegionID) []NodeID {
	if !e.tiling.Contains(u) {
		return nil
	}
	nodes := e.membersOf(u)
	out := make([]NodeID, len(nodes))
	for i, n := range nodes {
		out[i] = n.id
	}
	return out
}

// Submit delivers an input to region u's VSA: it is broadcast within the
// region (taking delta), buffered by every present node, and executed by
// the leader one more delta later (sequencing + commit broadcast) — a
// total emulation lag of 2·delta, which instantiates the paper's e.
// Inputs submitted while the VSA is down are lost, as in the abstract
// layer.
func (e *Emulator[I, O]) Submit(u geo.RegionID, msg I) error {
	if !e.tiling.Contains(u) {
		return fmt.Errorf("emul: region %v outside tiling", u)
	}
	e.inputID++
	in := Input[I]{ID: e.inputID, Msg: msg}
	e.k.Schedule(e.delta, func() {
		// The broadcast reaches whatever nodes are present now.
		for _, n := range e.membersOf(u) {
			if n.buffered == nil {
				n.buffered = make(map[uint64]Input[I])
			}
			n.buffered[in.ID] = in
		}
		// Commit only up to this input's sequence point: later inputs wait
		// for their own commit rounds, so each input's lag is exactly
		// 2·delta and cross-region interleaving matches a direct execution
		// when delta is 0. (Promote/restart sweep with no bound instead:
		// a recovering leader catches up on everything it has buffered.)
		e.k.Schedule(e.delta, func() { e.leaderExecuteUpTo(u, in.ID) })
	})
	return nil
}

// MaxLag returns the worst-case emulation output lag (the paper's e) for
// this configuration.
func (e *Emulator[I, O]) MaxLag() sim.Time { return 2 * e.delta }

// --- internals ---

// membersOf returns region u's alive nodes, ascending by id. The slice is
// the emulator's own: callers read it and must not hold it across a move or
// failure.
func (e *Emulator[I, O]) membersOf(u geo.RegionID) []*node[I] { return e.members[int(u)] }

// memberIndex returns where node id is, or belongs, in members.
func memberIndex[I any](members []*node[I], id NodeID) int {
	i, _ := slices.BinarySearchFunc(members, id, func(n *node[I], id NodeID) int { return cmp.Compare(n.id, id) })
	return i
}

func (e *Emulator[I, O]) enter(n *node[I], u geo.RegionID) {
	n.region = u
	m := e.members[int(u)]
	e.members[int(u)] = slices.Insert(m, memberIndex(m, n.id), n)
	n.hasReplica = false
	n.buffered = make(map[uint64]Input[I])
	n.committed = make(map[uint64]uint64)
	rs := e.regions[int(u)]
	if rs.alive {
		// Joining an up VSA: fetch a checkpoint from the leader (one
		// broadcast round); until then the node mirrors nothing.
		e.scheduleCheckpoint(n, u)
		return
	}
	// First node into a dead region: start the restart countdown.
	if len(e.membersOf(u)) == 1 && !rs.restart.Armed() {
		rs.restart.SetAfter(e.tRestart)
	}
}

// scheduleCheckpoint transfers the leader's state to a joining node after
// one broadcast round. The state is read at *arrival* time (the leader
// streams updates until the joiner is synced), so commits during the
// transfer are not lost on the new replica.
func (e *Emulator[I, O]) scheduleCheckpoint(n *node[I], u geo.RegionID) {
	e.k.Schedule(e.delta, func() {
		if !n.alive || n.region != u || n.hasReplica {
			return
		}
		rs := e.regions[int(u)]
		if !rs.alive || rs.leader == NoNode {
			return
		}
		leader := e.nodes[rs.leader]
		if leader == nil || !leader.alive || leader.region != u || !leader.hasReplica {
			return
		}
		n.state = append([]byte(nil), leader.state...)
		n.committed = make(map[uint64]uint64, len(leader.committed))
		for id, seq := range leader.committed {
			n.committed[id] = seq
		}
		// Share the leader's input buffer too (models retransmission of
		// broadcasts the joiner missed).
		for id, in := range leader.buffered {
			n.buffered[id] = in
		}
		n.hasReplica = true
	})
}

func (e *Emulator[I, O]) leave(n *node[I]) {
	u := n.region
	n.region = geo.NoRegion
	n.hasReplica = false
	if u == geo.NoRegion {
		return
	}
	m := e.members[int(u)]
	i := memberIndex(m, n.id)
	e.members[int(u)] = slices.Delete(m, i, i+1)
	rs := e.regions[int(u)]
	members := e.membersOf(u)
	if len(members) == 0 {
		// Region clientless: VSA fails, state lost.
		rs.restart.Clear()
		wasAlive := rs.alive
		rs.alive = false
		rs.leader = NoNode
		if wasAlive {
			e.fireEvent(RegionEvent{U: u, Kind: RegionFailed, Leader: NoNode})
		}
		return
	}
	if rs.alive && rs.leader == n.id {
		e.promote(u)
	}
}

// promote elects the lowest-id replica-holding node as leader; it
// re-executes any inputs it buffered that the old leader never committed.
func (e *Emulator[I, O]) promote(u geo.RegionID) {
	rs := e.regions[int(u)]
	for _, cand := range e.membersOf(u) {
		if cand.hasReplica {
			rs.leader = cand.id
			e.fireEvent(RegionEvent{U: u, Kind: LeaderChanged, Leader: cand.id})
			e.leaderExecute(u)
			return
		}
	}
	// No node holds a replica (all mirrors were still checkpointing):
	// the VSA state is unrecoverable — treat as failure.
	rs.alive = false
	rs.leader = NoNode
	rs.restart.Clear()
	e.fireEvent(RegionEvent{U: u, Kind: RegionFailed, Leader: NoNode})
	if len(e.membersOf(u)) > 0 {
		rs.restart.SetAfter(e.tRestart)
	}
}

func (e *Emulator[I, O]) completeRestart(u geo.RegionID) {
	rs := e.regions[int(u)]
	members := e.membersOf(u)
	if rs.alive || len(members) == 0 {
		return
	}
	rs.alive = true
	rs.leader = members[0].id
	rs.nextCommit = 0
	for _, n := range members {
		n.state = e.prog.Init(u)
		n.hasReplica = true
		n.committed = make(map[uint64]uint64)
		// Buffered inputs from before the restart belong to the dead
		// incarnation and are dropped.
		n.buffered = make(map[uint64]Input[I])
	}
	e.fireEvent(RegionEvent{U: u, Kind: RegionRestarted, Leader: rs.leader})
	e.leaderExecute(u)
}

// Boot marks every currently-occupied region's VSA alive immediately (the
// correctly-initialized system start of the paper's executions).
func (e *Emulator[I, O]) Boot() {
	for u := range e.regions {
		rs := e.regions[u]
		members := e.membersOf(geo.RegionID(u))
		if len(members) == 0 || rs.alive {
			continue
		}
		rs.restart.Clear()
		rs.alive = true
		rs.leader = members[0].id
		for _, n := range members {
			n.state = e.prog.Init(geo.RegionID(u))
			n.hasReplica = true
		}
	}
}

// leaderExecute lets region u's leader commit every input it has buffered
// but not yet executed, in input-id order, emitting outputs and updating
// all replicas (the commit broadcast is modeled as immediate application
// at the replicas; replica divergence windows are covered by the
// checkpoint join protocol).
func (e *Emulator[I, O]) leaderExecute(u geo.RegionID) {
	e.leaderExecuteUpTo(u, ^uint64(0))
}

// leaderExecuteUpTo is leaderExecute bounded to inputs with id <= maxID —
// the per-input commit round of the normal (failure-free) path.
func (e *Emulator[I, O]) leaderExecuteUpTo(u geo.RegionID, maxID uint64) {
	rs := e.regions[int(u)]
	if !rs.alive || rs.leader == NoNode {
		return
	}
	leader := e.nodes[rs.leader]
	if leader == nil || !leader.alive || leader.region != u || !leader.hasReplica {
		return
	}
	// Deterministic order: ascending input id.
	var todo []Input[I]
	for id, in := range leader.buffered {
		if id > maxID {
			continue
		}
		if _, done := leader.committed[id]; !done {
			todo = append(todo, in)
		}
	}
	sort.Slice(todo, func(i, j int) bool { return todo[i].ID < todo[j].ID })
	for _, in := range todo {
		next, outs := e.prog.Step(leader.state, in)
		rs.nextCommit++
		seq := rs.nextCommit
		if e.sink != nil {
			for _, out := range outs {
				e.sink(u, out)
			}
		}
		// Commit: every present replica applies the same input.
		for _, n := range e.membersOf(u) {
			if !n.hasReplica {
				continue
			}
			if n == leader {
				n.state = next
			} else {
				st, _ := e.prog.Step(n.state, in)
				n.state = st
			}
			n.committed[in.ID] = seq
			delete(n.buffered, in.ID)
		}
	}
}
