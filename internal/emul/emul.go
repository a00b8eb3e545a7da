// Package emul implements the Virtual Stationary Automata *emulation*
// algorithm that the paper imports from Dolev, Gilbert, Lahiani, Lynch &
// Nolte ("Timed virtual stationary automata for mobile networks", refs
// [7], [6]): each region's VSA is a deterministic timed machine whose
// state lives in the memories of the physical mobile nodes currently in
// the region, with one node (the leader) executing the machine and the
// rest mirroring it so the VSA survives node churn.
//
// The emulator here is leader-sequenced replicated execution, and a replica
// keeps state, not history:
//
//   - an input for a region's VSA belongs to the incarnation it was
//     submitted to; it is broadcast locally and appended to every
//     replica's buffer: every broadcast takes the same delta, so a buffer
//     stays in input-id order;
//   - the leader (lowest-id replica holder) executes its buffer's prefix in
//     id order, hands the outputs to the sink and broadcasts a commit; every
//     replica applies the input and pops it, and keeps no record of it;
//   - a joining node's checkpoint is the leader's state and the leader's
//     buffer, in place of its own: every input a member has heard is either
//     still in the leader's buffer or already in the leader's state;
//   - when the leader leaves or fails, the next-lowest replica promotes
//     itself and commits its whole buffer, so no input is lost while the
//     region stays occupied;
//   - if the region empties, the VSA fails and its incarnation ends: its
//     state and the inputs submitted to it and not committed are lost with
//     the nodes, a broadcast for an ended incarnation buffers nothing and a
//     Submit to a down region is lost at once, so an input commits only in
//     the incarnation it was submitted to. When nodes return, the VSA
//     restarts from the program's initial state after t_restart, exactly
//     the §II-C.2 failure semantics that internal/vsa exposes abstractly.
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
	// ID orders inputs deterministically (assigned by the emulator at
	// submission, unique and increasing).
	ID uint64
	// Msg is the payload.
	Msg I
}

// node is one physical node. While it holds a replica of its region's VSA
// it keeps the machine state and buffer, the inputs it has heard and the
// region has not committed, in id order; it keeps neither otherwise.
type node[I any] struct {
	id     NodeID
	region geo.RegionID // NoRegion when outside/failed
	alive  bool

	hasReplica bool
	state      []byte
	buffer     []Input[I]
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
	regions []*regionState[I]
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

// regionState is one region's VSA. inc counts its ended incarnations, and
// pending is every input submitted to the current one and not committed, in
// id order: the one record of what the region holds.
type regionState[I any] struct {
	alive   bool
	leader  NodeID // NoNode when failed
	restart *sim.Timer
	inc     uint64
	pending []Input[I]
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
		regions:  make([]*regionState[I], t.NumRegions()),
		members:  make([][]*node[I], t.NumRegions()),
		sink:     sink,
		events:   events,
	}
	for u := range e.regions {
		u := geo.RegionID(u)
		e.regions[u] = &regionState[I]{leader: NoNode, restart: sim.NewTimer(k, func() { e.completeRestart(u) })}
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
	if n, ok := e.nodes[id]; ok && n.alive {
		e.leave(n)
		n.alive = false
	}
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
// region (taking delta), buffered by every replica, and executed by the
// leader one more delta later (sequencing + commit broadcast) — a total
// emulation lag of 2·delta, which instantiates the paper's e. An input
// submitted while the VSA is down is lost at once, and one whose
// incarnation ends before it commits is lost with it, as in the abstract
// layer.
func (e *Emulator[I, O]) Submit(u geo.RegionID, msg I) error {
	if !e.tiling.Contains(u) {
		return fmt.Errorf("emul: region %v outside tiling", u)
	}
	rs := e.regions[int(u)]
	if !rs.alive {
		return nil
	}
	e.inputID++
	in, inc := Input[I]{ID: e.inputID, Msg: msg}, rs.inc
	rs.pending = append(rs.pending, in)
	e.k.Schedule(e.delta, func() {
		if rs.inc != inc {
			return // the incarnation ended and lost the input
		}
		// The broadcast reaches the replicas present now; with one delta
		// for every input, broadcasts land in id order.
		for _, n := range e.membersOf(u) {
			if n.hasReplica {
				n.buffer = append(n.buffer, in)
			}
		}
		// Commit only up to this input's sequence point: later inputs wait
		// for their own commit rounds, so each input's lag is exactly
		// 2·delta and cross-region interleaving matches a direct execution
		// when delta is 0. (A promoted leader commits its whole buffer.)
		e.k.Schedule(e.delta, func() { e.leaderExecuteUpTo(u, in.ID) })
	})
	return nil
}

// Uncommitted calls fn for each input submitted to region u's current
// incarnation and not yet committed, in id order. When the region fails,
// its RegionFailed hook is the last to see them.
func (e *Emulator[I, O]) Uncommitted(u geo.RegionID, fn func(Input[I])) {
	if e.tiling.Contains(u) {
		for _, in := range e.regions[int(u)].pending {
			fn(in)
		}
	}
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

// leaderOf returns region u's leader while its VSA is up, else nil.
func (e *Emulator[I, O]) leaderOf(u geo.RegionID) *node[I] {
	rs := e.regions[int(u)]
	if !rs.alive || rs.leader == NoNode {
		return nil
	}
	if l := e.nodes[rs.leader]; l != nil && l.alive && l.region == u && l.hasReplica {
		return l
	}
	return nil
}

// popThrough drops buf's prefix of inputs with id at most id, in place.
func popThrough[I any](buf []Input[I], id uint64) []Input[I] {
	i := 0
	for i < len(buf) && buf[i].ID <= id {
		i++
	}
	return buf[:copy(buf, buf[i:])]
}

func (e *Emulator[I, O]) enter(n *node[I], u geo.RegionID) {
	n.region = u
	m := e.members[int(u)]
	e.members[int(u)] = slices.Insert(m, memberIndex(m, n.id), n)
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

// scheduleCheckpoint transfers the leader's state and buffer to a joining
// node after one broadcast round. They are read at *arrival* time (the
// leader streams updates until the joiner is synced), so commits during the
// transfer are not lost on the new replica.
func (e *Emulator[I, O]) scheduleCheckpoint(n *node[I], u geo.RegionID) {
	e.k.Schedule(e.delta, func() {
		if !n.alive || n.region != u || n.hasReplica {
			return
		}
		if leader := e.leaderOf(u); leader != nil {
			n.state = append([]byte(nil), leader.state...)
			n.buffer = append([]Input[I](nil), leader.buffer...)
			n.hasReplica = true
		}
	})
}

// leave takes n out of its region; n's replica, if any, is lost with it.
func (e *Emulator[I, O]) leave(n *node[I]) {
	u := n.region
	n.region = geo.NoRegion
	n.hasReplica, n.state, n.buffer = false, nil, nil
	if u == geo.NoRegion {
		return
	}
	m := e.members[int(u)]
	i := memberIndex(m, n.id)
	e.members[int(u)] = slices.Delete(m, i, i+1)
	rs := e.regions[int(u)]
	if len(e.membersOf(u)) == 0 {
		// Region clientless: VSA fails, state lost.
		rs.restart.Clear()
		if rs.alive {
			e.fail(u)
		}
		return
	}
	if rs.alive && rs.leader == n.id {
		e.promote(u)
	}
}

// fail ends region u's incarnation: the VSA is down, and its state and
// uncommitted inputs are lost. The RegionFailed hook still lists them.
func (e *Emulator[I, O]) fail(u geo.RegionID) {
	rs := e.regions[int(u)]
	rs.alive, rs.leader = false, NoNode
	rs.inc++
	e.fireEvent(RegionEvent{U: u, Kind: RegionFailed, Leader: NoNode})
	clear(rs.pending)
	rs.pending = rs.pending[:0]
}

// promote elects the lowest-id replica-holding node as leader; it commits
// every input it buffered that the old leader never committed.
func (e *Emulator[I, O]) promote(u geo.RegionID) {
	rs := e.regions[int(u)]
	for _, cand := range e.membersOf(u) {
		if cand.hasReplica {
			rs.leader = cand.id
			e.fireEvent(RegionEvent{U: u, Kind: LeaderChanged, Leader: cand.id})
			e.leaderExecuteUpTo(u, ^uint64(0))
			return
		}
	}
	// No node holds a replica (all mirrors were still checkpointing):
	// the VSA state is unrecoverable — treat as failure.
	e.fail(u)
	rs.restart.SetAfter(e.tRestart)
}

func (e *Emulator[I, O]) completeRestart(u geo.RegionID) {
	rs := e.regions[int(u)]
	if rs.alive || len(e.membersOf(u)) == 0 {
		return
	}
	e.start(u)
	e.fireEvent(RegionEvent{U: u, Kind: RegionRestarted, Leader: rs.leader})
}

// Boot marks every currently-occupied region's VSA alive immediately (the
// correctly-initialized system start of the paper's executions).
func (e *Emulator[I, O]) Boot() {
	for u, rs := range e.regions {
		if !rs.alive && len(e.members[u]) > 0 {
			rs.restart.Clear()
			e.start(geo.RegionID(u))
		}
	}
}

// start brings region u's VSA up from the program's initial state, led by
// its lowest-id node, with every present node a replica.
func (e *Emulator[I, O]) start(u geo.RegionID) {
	rs, members := e.regions[int(u)], e.membersOf(u)
	rs.alive, rs.leader = true, members[0].id
	for _, n := range members {
		n.state, n.hasReplica = e.prog.Init(u), true
	}
}

// leaderExecuteUpTo lets region u's leader commit its buffer's prefix of
// inputs with id <= maxID, in id order: it executes each, hands its outputs
// to the sink, and every present replica applies it and pops it (the commit
// broadcast is modeled as immediate application at the replicas; replica
// divergence windows are covered by the checkpoint join protocol).
func (e *Emulator[I, O]) leaderExecuteUpTo(u geo.RegionID, maxID uint64) {
	leader := e.leaderOf(u)
	if leader == nil {
		return
	}
	rs := e.regions[int(u)]
	for len(leader.buffer) > 0 && leader.buffer[0].ID <= maxID {
		in := leader.buffer[0]
		next, outs := e.prog.Step(leader.state, in)
		if e.sink != nil {
			for _, out := range outs {
				e.sink(u, out)
			}
		}
		for _, n := range e.membersOf(u) {
			if !n.hasReplica {
				continue
			}
			if n == leader {
				n.state = next
			} else {
				n.state, _ = e.prog.Step(n.state, in)
			}
			n.buffer = popThrough(n.buffer, in.ID)
		}
		rs.pending = popThrough(rs.pending, in.ID)
	}
}
