package emul

// The reference model: the emulator as it stood before replicas kept a
// buffer in input-id order instead of a dedup map of every input they had
// committed, and before inputs were bound to the incarnation they were
// submitted to. It is kept verbatim but for its names (the ref prefix), as
// the geo package keeps its BFS, so that TestEmulatorMatchesReference can
// drive both with one seeded churn script and compare what they emit.

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"vinestalk/internal/geo"
	"vinestalk/internal/sim"
)

// node is one physical node's replica state for the region it occupies.
type refNode[I any] struct {
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
type refEmulator[I, O any] struct {
	k        *sim.Kernel
	tiling   geo.Tiling
	prog     Program[I, O]
	delta    sim.Time // local broadcast delay between nodes in a region
	tRestart sim.Time

	nodes   map[NodeID]*refNode[I]
	regions []*refRegionState
	inputID uint64

	// members holds each region's alive nodes, ascending by id: a node
	// enters its region's slice on enter and leaves it on leave, which
	// every move and failure goes through.
	members [][]*refNode[I]

	sink   func(u geo.RegionID, out O)
	events func(ev RegionEvent)
}

// fireEvent invokes the region-events hook, if any.
func (e *refEmulator[I, O]) fireEvent(ev RegionEvent) {
	if e.events != nil {
		e.events(ev)
	}
}

type refRegionState struct {
	alive      bool
	leader     NodeID // NoNode when failed
	restart    *sim.Timer
	nextCommit uint64
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
func newReference[I, O any](k *sim.Kernel, t geo.Tiling, prog Program[I, O], delta, tRestart sim.Time,
	sink func(u geo.RegionID, out O), events func(ev RegionEvent)) *refEmulator[I, O] {
	e := &refEmulator[I, O]{
		k:        k,
		tiling:   t,
		prog:     prog,
		delta:    delta,
		tRestart: tRestart,
		nodes:    make(map[NodeID]*refNode[I]),
		regions:  make([]*refRegionState, t.NumRegions()),
		members:  make([][]*refNode[I], t.NumRegions()),
		sink:     sink,
		events:   events,
	}
	for u := range e.regions {
		rs := &refRegionState{leader: NoNode}
		u := geo.RegionID(u)
		rs.restart = sim.NewTimer(k, func() { e.completeRestart(u) })
		e.regions[int(u)] = rs
	}
	return e
}

// AddNode places a new physical node at region u.
func (e *refEmulator[I, O]) AddNode(id NodeID, u geo.RegionID) error {
	if _, dup := e.nodes[id]; dup {
		return fmt.Errorf("emul: node %v already exists", id)
	}
	if !e.tiling.Contains(u) {
		return fmt.Errorf("emul: region %v outside tiling", u)
	}
	n := &refNode[I]{id: id, alive: true, region: geo.NoRegion}
	e.nodes[id] = n
	e.enter(n, u)
	return nil
}

// MoveNode relocates a node; its old region may lose its VSA, its new
// region may gain a replica (after a checkpoint transfer).
func (e *refEmulator[I, O]) MoveNode(id NodeID, u geo.RegionID) error {
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
func (e *refEmulator[I, O]) FailNode(id NodeID) {
	n, ok := e.nodes[id]
	if !ok || !n.alive {
		return
	}
	e.leave(n)
	n.alive = false
}

// Alive reports whether region u's emulated VSA is up.
func (e *refEmulator[I, O]) Alive(u geo.RegionID) bool {
	return e.tiling.Contains(u) && e.regions[int(u)].alive
}

// Leader returns the node currently executing region u's VSA (NoNode if
// the VSA is down).
func (e *refEmulator[I, O]) Leader(u geo.RegionID) NodeID {
	if !e.tiling.Contains(u) {
		return NoNode
	}
	return e.regions[int(u)].leader
}

// Members returns the alive nodes currently in region u, ascending.
func (e *refEmulator[I, O]) Members(u geo.RegionID) []NodeID {
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
func (e *refEmulator[I, O]) Submit(u geo.RegionID, msg I) error {
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
func (e *refEmulator[I, O]) MaxLag() sim.Time { return 2 * e.delta }

// --- internals ---

// membersOf returns region u's alive nodes, ascending by id. The slice is
// the emulator's own: callers read it and must not hold it across a move or
// failure.
func (e *refEmulator[I, O]) membersOf(u geo.RegionID) []*refNode[I] { return e.members[int(u)] }

// refMemberIndex returns where node id is, or belongs, in members.
func refMemberIndex[I any](members []*refNode[I], id NodeID) int {
	i, _ := slices.BinarySearchFunc(members, id, func(n *refNode[I], id NodeID) int { return cmp.Compare(n.id, id) })
	return i
}

func (e *refEmulator[I, O]) enter(n *refNode[I], u geo.RegionID) {
	n.region = u
	m := e.members[int(u)]
	e.members[int(u)] = slices.Insert(m, refMemberIndex(m, n.id), n)
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
func (e *refEmulator[I, O]) scheduleCheckpoint(n *refNode[I], u geo.RegionID) {
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

func (e *refEmulator[I, O]) leave(n *refNode[I]) {
	u := n.region
	n.region = geo.NoRegion
	n.hasReplica = false
	if u == geo.NoRegion {
		return
	}
	m := e.members[int(u)]
	i := refMemberIndex(m, n.id)
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
func (e *refEmulator[I, O]) promote(u geo.RegionID) {
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

func (e *refEmulator[I, O]) completeRestart(u geo.RegionID) {
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
func (e *refEmulator[I, O]) Boot() {
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
func (e *refEmulator[I, O]) leaderExecute(u geo.RegionID) {
	e.leaderExecuteUpTo(u, ^uint64(0))
}

// leaderExecuteUpTo is leaderExecute bounded to inputs with id <= maxID —
// the per-input commit round of the normal (failure-free) path.
func (e *refEmulator[I, O]) leaderExecuteUpTo(u geo.RegionID, maxID uint64) {
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

// emulation is what a churn run drives: the emulator or the reference model.
type emulation interface {
	AddNode(id NodeID, u geo.RegionID) error
	MoveNode(id NodeID, u geo.RegionID) error
	FailNode(id NodeID)
	Submit(u geo.RegionID, msg uint64) error
	Alive(u geo.RegionID) bool
	Boot()
}

// churnRun drives one seeded churn script on 2×2 — inputs to live regions,
// nodes moving, crashing and joining, time passing in steps around delta —
// and returns everything the emulation emitted: outputs and region events,
// each with its region and instant. outlived reports whether a region
// failed while holding an input the emulator had not committed.
func churnRun(seed int64, delta, tRestart sim.Time, reference bool) (log []string, outlived bool) {
	k := sim.New(1)
	tiling := geo.MustGridTiling(2, 2)
	sink := func(u geo.RegionID, out uint64) { log = append(log, fmt.Sprint(k.Now(), u, "out", out)) }
	var em emulation
	if reference {
		em = newReference[uint64](k, tiling, counterProgram{}, delta, tRestart, sink,
			func(ev RegionEvent) { log = append(log, fmt.Sprint(k.Now(), ev)) })
	} else {
		var e *Emulator[uint64, uint64]
		e = New[uint64](k, tiling, counterProgram{}, delta, tRestart, sink, func(ev RegionEvent) {
			log = append(log, fmt.Sprint(k.Now(), ev))
			if ev.Kind == RegionFailed {
				e.Uncommitted(ev.U, func(Input[uint64]) { outlived = true })
			}
		})
		em = e
	}
	rng := rand.New(rand.NewSource(seed))
	next := NodeID(0)
	for ; next < 10; next++ {
		_ = em.AddNode(next, geo.RegionID(rng.Intn(4)))
	}
	em.Boot()
	waits := []sim.Time{0, delta / 2, delta, 2 * delta, tRestart}
	for step := 0; step < 60; step++ {
		switch rng.Intn(8) {
		case 0, 1, 2:
			if u := geo.RegionID(rng.Intn(4)); em.Alive(u) {
				_ = em.Submit(u, uint64(rng.Intn(100)+1))
			}
		case 3:
			_ = em.MoveNode(NodeID(rng.Intn(int(next))), geo.RegionID(rng.Intn(4)))
		case 4:
			em.FailNode(NodeID(rng.Intn(int(next))))
			_ = em.AddNode(next, geo.RegionID(rng.Intn(4)))
			next++
		default:
			k.RunFor(waits[rng.Intn(len(waits))])
		}
	}
	k.Run()
	return log, outlived
}

// TestEmulatorMatchesReference runs seeded churn scripts on the emulator and
// on the reference model, with δ ∈ {0, 1, 5} ms and t_restart ∈ {0.5, 3,
// 20} ms, and requires identical outputs and region events, at the same
// instants, in every run where no input outlives its incarnation. In the
// others the reference can commit an input in the next incarnation of its
// region, when that one starts before the input's broadcast lands, and the
// emulator loses it with the incarnation it was submitted to: so they may
// differ only where t_restart < δ.
func TestEmulatorMatchesReference(t *testing.T) {
	const seeds = 300
	compared, differed := 0, 0
	for _, delta := range []sim.Time{0, time.Millisecond, 5 * time.Millisecond} {
		for _, tRestart := range []sim.Time{500 * time.Microsecond, 3 * time.Millisecond, 20 * time.Millisecond} {
			for seed := int64(1); seed <= seeds; seed++ {
				got, outlived := churnRun(seed, delta, tRestart, false)
				want, _ := churnRun(seed, delta, tRestart, true)
				same := fmt.Sprint(got) == fmt.Sprint(want)
				if outlived && !same && tRestart < delta {
					differed++
				}
				if outlived && tRestart < delta {
					continue
				}
				compared++
				if !same {
					t.Fatalf("δ=%v t_restart=%v seed %d: the emulator emitted\n%v\nthe reference\n%v", delta, tRestart, seed, got, want)
				}
			}
		}
	}
	t.Logf("%d runs compared; %d of the others, where an input outlived its incarnation and t_restart < δ, differed", compared, differed)
	if runs := 9 * seeds; compared < runs*3/4 {
		t.Fatalf("only %d of %d runs were compared", compared, runs)
	}
}
