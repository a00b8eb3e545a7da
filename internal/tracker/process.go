package tracker

import (
	"vinestalk/internal/cgcast"
	"vinestalk/internal/geo"
	"vinestalk/internal/hier"
	"vinestalk/internal/sim"
)

// Process is Tracker_{u,lvl} of Fig. 2: the cluster process for clust =
// cluster(u, lvl), hosted at the VSA of head region u.
//
// The paper tracks a single evader; the §VII multiple-objects extension is
// realized by keying the figure's entire state vector per tracked object:
// each ObjectID gets its own (c, p, nbrptup, nbrptdown, timer, finding,
// nbrtimeout) tuple, and protocol messages carry the object they concern.
// The structures are independent — with one object this is exactly the
// figure's automaton, and with k objects the state and work multiply by k.
//
// A Process is part of the pure Tracker Automaton: it holds no network or
// kernel handles. Sends, found broadcasts, and instrumentation notes are
// emitted as effects through the automaton's host, and its timer variables
// are recorded deadlines (objTable.deadline) whose wakeups the host routes back
// via Automaton.TimerFire — which is what lets the same process state be
// serialized, replicated, and replayed by the emulation host.
type Process struct {
	aut    *Automaton
	id     hier.ClusterID
	region geo.RegionID // the head region hosting this replica
	level  int
	backup bool // replica at the alternate head (§VII quorum extension)

	objs objTable
	// pending holds the finds a row with its finding bit set is holding, in
	// arrival order (part of the machine state). It is a side map because
	// table rows are pointer-free; nil until the first find is held.
	pending map[ObjectID][]FindPayload
	// armedMove counts rows whose grow/shrink timer is armed; the automaton
	// keeps the sum over its processes for Network.MoveQuiescent.
	armedMove int
}

// objState is one object's Fig. 2 state vector at this process: a
// pointer-free value row of the process's objTable. Field names mirror the
// figure: c (child pointer), p (path parent), nbrptup and nbrptdown
// (secondary tracking pointers), finding, and the timer variables — the
// single grow/shrink timer, nbrtimeout, and the two §VII heartbeat leases
// (inert when the network has no heartbeat configuration: lease guards the
// primary pointers c and p, nbrLease the secondary pointers, which are
// renewed by the growPar/growNbr re-announcements that refresh propagation
// triggers).
//
// A row does not know its process: every action is a Process method taking
// the row. An input action looks the row up once on entry and uses that
// pointer until it returns; this is sound because no action re-enters its
// own table — every send goes through the host's C-gcast, never straight
// into another receive.
type objState struct {
	obj ObjectID

	c         hier.ClusterID
	p         hier.ClusterID
	nbrptup   hier.ClusterID
	nbrptdown hier.ClusterID

	// finding is Fig. 2's flag: the process holds at least one find for
	// the object, kept in Process.pending[obj].
	finding bool

	// tmask says which TIOA timer variables are finite: bit k for timerKind
	// k, the region encoding's flag bits. A variable whose bit is clear
	// reads ∞ (sim.Forever). The finite deadlines live outside the row, in
	// slot dl of the process table's deadline slab, which the row holds
	// exactly while tmask ≠ 0 (objTable.setDeadline, objTable.deadline): on
	// a settled path every variable reads ∞, and the row is its pointers.
	// The deadlines are part of the serialized region state;
	// Process.setTimer mirrors each write to the host's wakeup service, whose
	// fires the automaton validates against the recorded deadline (stale
	// wakeups are no-ops). Beside each finite deadline the slot keeps the
	// ref of its wakeup in the oracle host's pool (timerSlot.wake), so that
	// host finds a wakeup through its row and keeps no index of its own.
	tmask uint8
	// psl is the row's probe sequence length in its objTable: one more than
	// its distance from its home slot, and 0 in an empty slot. It fills what
	// would be padding, and only the table reads or writes it.
	psl uint8
	dl  int32
}

// newObjState returns the initial (quiescent) state vector for obj.
func newObjState(obj ObjectID) objState {
	return objState{
		obj:       obj,
		c:         hier.NoCluster,
		p:         hier.NoCluster,
		nbrptup:   hier.NoCluster,
		nbrptdown: hier.NoCluster,
	}
}

// armed reports whether the timer variable has a finite deadline.
func (st *objState) armed(kind timerKind) bool { return st.tmask&(1<<kind) != 0 }

// settled reports whether the vector is a pure pointer tuple: no armed
// timer of any kind and no held find.
func (st *objState) settled() bool { return !st.finding && st.tmask == 0 }

// quiescent reports whether the state vector equals the initial state: all
// four pointers nil, no held find, and no armed timer of any kind. A
// quiescent vector carries no information the initial state would not
// reproduce, which is what makes dropping it semantics-preserving.
func (st *objState) quiescent() bool {
	return st.c == hier.NoCluster && st.p == hier.NoCluster &&
		st.nbrptup == hier.NoCluster && st.nbrptdown == hier.NoCluster &&
		st.settled()
}

func newProcess(aut *Automaton, id hier.ClusterID, region geo.RegionID) *Process {
	return &Process{
		aut:    aut,
		id:     id,
		region: region,
		level:  aut.h.Level(id),
	}
}

// recordDeadline writes a timer variable without telling the host, keeping
// the armed grow/shrink counts in step. It is the only writer of a row's
// deadlines, held or scratch.
func (pr *Process) recordDeadline(st *objState, kind timerKind, at sim.Time) {
	if kind == timerGrowShrink && st.armed(kind) != (at != sim.Forever) {
		d := 1
		if at == sim.Forever {
			d = -1
		}
		pr.armedMove += d
		pr.aut.armedMove += d
	}
	pr.objs.setDeadline(st, kind, at)
}

// setTimer assigns a timer variable of st — an absolute virtual time, or
// Forever to clear it — and mirrors the write to the host through the
// outlet, handing over the wakeup ref the variable's deadline slot keeps and
// keeping the one the outlet returns while the variable is armed.
func (pr *Process) setTimer(st *objState, kind timerKind, at sim.Time) {
	var ref int32
	if st.armed(kind) {
		ref = pr.objs.wake(st, kind) // before the write: a clear may free the slot
	}
	pr.recordDeadline(st, kind, at)
	ref = pr.aut.out.timer(pr.region, packTimerID(pr.level, st.obj, kind), at, ref)
	if at != sim.Forever {
		pr.objs.setWake(st, kind, ref)
	}
}

// setTimerAfter arms a timer delay after the current time, saturating at ∞.
func (pr *Process) setTimerAfter(st *objState, kind timerKind, delay sim.Time) {
	pr.setTimer(st, kind, sim.Add(pr.aut.host.Now(), delay))
}

// clearTimer disarms a timer (deadline ← ∞).
func (pr *Process) clearTimer(st *objState, kind timerKind) { pr.setTimer(st, kind, sim.Forever) }

// enter begins an input action for obj: it returns the object's row, or —
// when the process holds none — scratch initialized to the quiescent state.
// The action runs against the returned pointer and ends with leave.
func (pr *Process) enter(obj ObjectID, scratch *objState) (st *objState, held bool) {
	if st := pr.objs.get(obj); st != nil {
		return st, true
	}
	*scratch = newObjState(obj)
	return scratch, false
}

// leave ends an input action — the only place a vector can change between
// quiescent and not. A scratch row the action left non-quiescent enters the
// table; a table row it left quiescent is evicted (the object is no longer
// rooted through this process) until a future message re-creates it. Traffic
// that implies no structure — a shrink for an unknown object, a stale
// replayed frame — therefore never touches the table.
func (pr *Process) leave(st *objState, held bool) {
	switch quiet := st.quiescent(); {
	case held && quiet:
		pr.objs.remove(st.obj)
	case !held && !quiet:
		pr.objs.insert(*st)
	}
}

// adopt replaces the process's whole machine state (decode, failure).
func (pr *Process) adopt(objs objTable, pending map[ObjectID][]FindPayload, armedMove int) {
	pr.aut.armedMove += armedMove - pr.armedMove
	pr.objs, pr.pending, pr.armedMove = objs, pending, armedMove
}

// reset returns the process to its initial state (VSA failure/restart),
// clearing armed deadlines through the host.
func (pr *Process) reset() {
	pr.objs.each(func(st *objState) {
		for kind := timerKind(0); kind < numTimerKinds; kind++ {
			pr.clearTimer(st, kind)
		}
	})
	pr.adopt(objTable{}, nil, 0)
}

// Cluster returns the cluster this process tracks for.
func (pr *Process) Cluster() hier.ClusterID { return pr.id }

// Level returns level(clust).
func (pr *Process) Level() int { return pr.level }

// Region returns the head region hosting this replica.
func (pr *Process) Region() geo.RegionID { return pr.region }

// Pointers returns (c, p, nbrptup, nbrptdown) for the default object.
func (pr *Process) Pointers() (c, p, up, down hier.ClusterID) {
	return pr.PointersFor(DefaultObject)
}

// PointersFor returns the pointer vector for one tracked object.
func (pr *Process) PointersFor(obj ObjectID) (c, p, up, down hier.ClusterID) {
	st := pr.objs.get(obj)
	if st == nil {
		return hier.NoCluster, hier.NoCluster, hier.NoCluster, hier.NoCluster
	}
	return st.c, st.p, st.nbrptup, st.nbrptdown
}

// LiveObjects returns how many objects currently hold a state vector at
// this process — the quantity the quiescence eviction keeps proportional
// to objects rooted through the process.
func (pr *Process) LiveObjects() int { return pr.objs.len() }

// receive dispatches a C-gcast delivery to the Fig. 2 input actions of the
// addressed object's state vector.
func (pr *Process) receive(d *cgcast.Delivery) {
	// Client-originated grow/shrink name the level-0 cluster itself (the
	// client broadcast an object detection for this region).
	cid := d.From
	if cid == hier.NoCluster {
		cid = pr.id
	}
	var scratch objState
	st, held := pr.enter(ObjectID(d.Obj), &scratch)
	pr.sanitize(st)
	switch d.Kind {
	case KindGrow:
		pr.aut.out.noteGrow(pr.region, pr.level)
		pr.onGrow(st, cid)
	case KindGrowNbr:
		pr.onGrowNbr(st, cid)
	case KindGrowPar:
		pr.onGrowPar(st, cid)
	case KindShrink:
		pr.onShrink(st, cid)
	case KindShrinkUpd:
		pr.onShrinkUpd(st, cid)
	case KindFind:
		pr.onFind(st, findsOf(&d.Body))
	case KindFindQuery:
		pr.onFindQuery(st, cid)
	case KindFindAck:
		pr.onFindAck(st, hier.ClusterID(d.Arg))
	case KindRefresh:
		pr.onRefresh(st, cid, int(d.Arg))
	}
	// TIOA semantics: any newly-enabled find output fires (zero-time local
	// steps), so re-evaluate after every state change.
	pr.evaluateFind(st)
	pr.leave(st, held)
}

// fire runs the timer-expiry action of one timer variable. The caller has
// validated the wakeup against the recorded deadline.
func (pr *Process) fire(st *objState, kind timerKind) {
	// Like sim.Timer, the deadline reads as ∞ inside the handler (the
	// handler may re-arm it).
	pr.recordDeadline(st, kind, sim.Forever)
	switch kind {
	case timerGrowShrink:
		pr.onTimer(st)
	case timerNbrTimeout:
		pr.onNbrTimeout(st)
	case timerLease:
		pr.onLeaseExpired(st)
	case timerNbrLease:
		pr.onNbrLeaseExpired(st)
	}
}

// send emits a protocol message about the row's object that says nothing
// beyond its kind.
func (pr *Process) send(st *objState, to hier.ClusterID, kind kindCode) {
	pr.sendBody(to, kind, bodyFor(st.obj))
}

// sendArg emits a message carrying one scalar (findAck's pointer, refresh's
// hop count).
func (pr *Process) sendArg(st *objState, to hier.ClusterID, kind kindCode, arg int32) {
	pr.sendBody(to, kind, cgcast.Body{Obj: int32(st.obj), Arg: arg})
}

func (pr *Process) sendBody(to hier.ClusterID, kind kindCode, body cgcast.Body) {
	pr.aut.out.send(pr.region, sendEffect{From: pr.id, Backup: pr.backup, To: to, Kind: kind, Body: body})
}

// --- Move-related actions (Fig. 2, left column) ---

// onGrow is Input cTOBrcv(〈grow, cid〉): the timer is armed only when the
// process is off the path entirely (c = p = ⊥) and below MAX; c always
// adopts the sender (a newer path supersedes what a pending grow will
// report upward).
func (pr *Process) onGrow(st *objState, cid hier.ClusterID) {
	if st.c == hier.NoCluster && st.p == hier.NoCluster && pr.level != pr.aut.maxLevel {
		pr.setTimerAfter(st, timerGrowShrink, pr.aut.sched.G[pr.level])
	}
	st.c = cid
	pr.renewLease(st)
}

// onGrowNbr is Input cTOBrcv(〈growNbr, cid〉): the sender connected to the
// path via a lateral link.
func (pr *Process) onGrowNbr(st *objState, cid hier.ClusterID) {
	st.nbrptdown = cid
	pr.renewNbrLease(st)
}

// onGrowPar is Input cTOBrcv(〈growPar, cid〉): the sender connected to the
// path via its hierarchy parent.
func (pr *Process) onGrowPar(st *objState, cid hier.ClusterID) {
	st.nbrptup = cid
	pr.renewNbrLease(st)
}

// onShrink is Input cTOBrcv(〈shrink, cid〉): only deadwood is cleaned — the
// message is ignored unless c still names the shrinking child.
func (pr *Process) onShrink(st *objState, cid hier.ClusterID) {
	if st.c != cid {
		return
	}
	st.c = hier.NoCluster
	if pr.level != pr.aut.maxLevel {
		pr.setTimerAfter(st, timerGrowShrink, pr.aut.sched.S[pr.level])
	}
}

// onShrinkUpd is Input cTOBrcv(〈shrinkUpd, cid〉): drop secondary pointers
// to a process that left the path.
func (pr *Process) onShrinkUpd(st *objState, cid hier.ClusterID) {
	if st.nbrptup == cid {
		st.nbrptup = hier.NoCluster
	}
	if st.nbrptdown == cid {
		st.nbrptdown = hier.NoCluster
	}
}

// onTimer realizes the two timer-gated outputs, whose preconditions are
// re-checked at expiry (a shrink may have cleared c while the grow timer
// ran, or a grow may have re-attached the branch while the shrink timer
// ran — in both cases no message is sent):
//
//	cTOBsend(〈grow, clust〉, par): c ≠ ⊥ ∧ p = ⊥, par = nbrptup if set
//	  else parent(clust); then p ← par and neighbors learn via
//	  growNbr (lateral) or growPar (vertical).
//	cTOBsend(〈shrink, clust〉, p): c = ⊥ ∧ p ≠ ⊥; then p ← ⊥ and
//	  neighbors learn via shrinkUpd.
func (pr *Process) onTimer(st *objState) {
	pr.sanitize(st)
	h := pr.aut.h
	switch {
	case st.c != hier.NoCluster && st.p == hier.NoCluster && pr.level != pr.aut.maxLevel:
		lateral := st.nbrptup != hier.NoCluster && !pr.aut.noLateral
		par := st.nbrptup
		if !lateral {
			par = h.Parent(pr.id)
		}
		st.p = par
		pr.send(st, par, kindGrow)
		kind := kindGrowPar
		if lateral {
			kind = kindGrowNbr
		}
		for _, b := range h.Nbrs(pr.id) {
			pr.send(st, b, kind)
		}
		pr.renewLease(st)
	case st.c == hier.NoCluster && st.p != hier.NoCluster:
		dest := st.p
		st.p = hier.NoCluster
		pr.send(st, dest, kindShrink)
		for _, b := range h.Nbrs(pr.id) {
			pr.send(st, b, kindShrinkUpd)
		}
		pr.clearTimer(st, timerLease)
	}
	pr.evaluateFind(st)
}

// --- Find-related actions (Fig. 2, right column) ---

// onFind is Input cTOBrcv(〈find, cid〉): finding ← true, nbrtimeout ← ∞.
// The held set generalizes the figure's single finding flag so that
// concurrent finds meeting at one process are all serviced rather than
// conflated; with at most one find in the system it degenerates to the flag.
func (pr *Process) onFind(st *objState, payloads []FindPayload) {
	if len(payloads) > 0 {
		if pr.pending == nil {
			pr.pending = make(map[ObjectID][]FindPayload)
		}
		pr.pending[st.obj] = append(pr.pending[st.obj], payloads...)
		st.finding = true
	}
	pr.clearTimer(st, timerNbrTimeout)
}

// takeFinds hands over every find held for the row's object and ends the
// searching state: finding ← false, nbrtimeout ← ∞.
func (pr *Process) takeFinds(st *objState) []FindPayload {
	payloads := pr.pending[st.obj]
	delete(pr.pending, st.obj)
	st.finding = false
	pr.clearTimer(st, timerNbrTimeout)
	return payloads
}

// onFindQuery is Input cTOBrcv(〈findQuery, cid〉): answer with the best
// pointer toward the path, or stay silent.
func (pr *Process) onFindQuery(st *objState, cid hier.ClusterID) {
	switch {
	case st.c != hier.NoCluster:
		pr.sendArg(st, cid, kindFindAck, int32(st.c))
	case st.nbrptdown != hier.NoCluster:
		pr.sendArg(st, cid, kindFindAck, int32(st.nbrptdown))
	case st.nbrptup != hier.NoCluster:
		pr.sendArg(st, cid, kindFindAck, int32(st.nbrptup))
	}
}

// onFindAck is Input cTOBrcv(〈findAck, dest〉): forward the held find to
// the acked pointer if the process is still searching and still has no
// pointer of its own.
func (pr *Process) onFindAck(st *objState, dest hier.ClusterID) {
	if !st.finding || dest == pr.id {
		return
	}
	if st.c != hier.NoCluster || st.nbrptdown != hier.NoCluster {
		return
	}
	if st.nbrptup != hier.NoCluster && st.nbrptup != st.p {
		return
	}
	pr.forwardFind(st, dest)
}

// evaluateFind realizes the eagerly-enabled find outputs of Fig. 2: the
// found broadcast (finding ∧ c = clust), the three direct find forwards,
// and the internal findquery action. It is called after every state change.
func (pr *Process) evaluateFind(st *objState) {
	if !st.finding {
		return
	}
	h := pr.aut.h
	switch {
	case st.c == pr.id:
		// Tracing complete: broadcast found to clients in this and
		// neighboring regions.
		pr.aut.out.found(pr.region, foundEffect{From: pr.id, Backup: pr.backup, Obj: st.obj, Payloads: pr.takeFinds(st)})
	case st.c != hier.NoCluster:
		pr.forwardFind(st, st.c)
	case st.nbrptdown != hier.NoCluster:
		pr.forwardFind(st, st.nbrptdown)
	case st.nbrptup != hier.NoCluster && st.nbrptup != st.p:
		pr.forwardFind(st, st.nbrptup)
	case !st.armed(timerNbrTimeout):
		// Internal findquery: ask every neighbor except the path parent,
		// and wait one neighbor round trip. The +1ns margin makes an ack
		// arriving at exactly the round-trip bound win over the timeout
		// (TIOA would resolve the tie either way; the paper intends the
		// ack to count as "received before nbrtimeout expires").
		pr.aut.out.noteQuery(pr.region, pr.level)
		pr.setTimerAfter(st, timerNbrTimeout, 2*pr.aut.unit*sim.Time(pr.aut.geom.N[pr.level])+1)
		for _, b := range h.Nbrs(pr.id) {
			if b == st.p {
				continue
			}
			pr.send(st, b, kindFindQuery)
		}
	}
}

// onNbrTimeout realizes the nbrtimeout ≤ now disjunct of the find-forward
// output: no neighbor answered, so escalate to the hierarchy parent (or to
// nbrptup when it coincides with p).
func (pr *Process) onNbrTimeout(st *objState) {
	if !st.finding {
		return
	}
	if st.c != hier.NoCluster || st.nbrptdown != hier.NoCluster {
		// A pointer appeared as the timeout fired; the direct forwards
		// handle it.
		pr.evaluateFind(st)
		return
	}
	dest := st.nbrptup
	if dest == hier.NoCluster {
		dest = pr.aut.h.Parent(pr.id)
	}
	if dest == hier.NoCluster || dest == pr.id {
		return // level MAX with no pointer anywhere: keep holding
	}
	pr.forwardFind(st, dest)
}

// forwardFind sends every held find to dest and clears the searching state.
func (pr *Process) forwardFind(st *objState, dest hier.ClusterID) {
	pr.sendBody(dest, kindFind, findsBody(st.obj, pr.takeFinds(st)))
}

// --- §VII heartbeat extension ---

// onRefresh renews the lease and heals path breaks: a process that lost its
// state to a VSA failure re-adopts the refreshing child and re-grows toward
// the root; an intact process forwards the refresh along its path parent.
func (pr *Process) onRefresh(st *objState, cid hier.ClusterID, hops int) {
	if pr.aut.hb == nil {
		return
	}
	// TTL: a legal tracking path visits at most MAX+1 levels with at most
	// one lateral hop per level. A refresh that has traveled further is
	// circulating through corrupted pointers (e.g. a lateral p-cycle) and
	// must not keep renewing the garbage's leases.
	if hops > 2*pr.aut.maxLevel+3 {
		return
	}
	st.c = cid
	pr.renewLease(st)
	switch {
	case st.p != hier.NoCluster:
		pr.sendArg(st, st.p, kindRefresh, int32(hops+1))
		// Re-announce the connection kind so neighbors' secondary
		// pointers (and their leases) stay fresh.
		kind := kindGrowPar
		if pr.aut.h.AreNbrs(pr.id, st.p) {
			kind = kindGrowNbr
		}
		for _, b := range pr.aut.h.Nbrs(pr.id) {
			pr.send(st, b, kind)
		}
	case pr.level != pr.aut.maxLevel && !st.armed(timerGrowShrink):
		pr.setTimerAfter(st, timerGrowShrink, pr.aut.sched.G[pr.level])
	}
}

// sanitize enforces the per-process type invariants on pointer state, the
// local-checking half of the §VII stabilization recipe: c must be a child,
// a neighbor, or (at level 0) the process itself; p must be a neighbor or
// the hierarchy parent; secondary pointers must be neighbors. Values
// outside these sets can only arise from corruption and are dropped on the
// spot. Only active in heartbeat mode (in normal operation the protocol
// preserves the invariants, which the E5 checker verifies).
func (pr *Process) sanitize(st *objState) {
	if pr.aut.hb == nil {
		return
	}
	h := pr.aut.h
	if c := st.c; c != hier.NoCluster {
		if !(h.IsChild(c, pr.id) || h.AreNbrs(c, pr.id) || (c == pr.id && pr.level == 0)) {
			st.c = hier.NoCluster
		}
	}
	if p := st.p; p != hier.NoCluster {
		if !(h.Parent(pr.id) == p || h.AreNbrs(p, pr.id)) {
			st.p = hier.NoCluster
		}
	}
	if up := st.nbrptup; up != hier.NoCluster && !h.AreNbrs(up, pr.id) {
		st.nbrptup = hier.NoCluster
	}
	if down := st.nbrptdown; down != hier.NoCluster && !h.AreNbrs(down, pr.id) {
		st.nbrptdown = hier.NoCluster
	}
}

// renewLease re-arms the path lease when heartbeats are enabled.
func (pr *Process) renewLease(st *objState) {
	if pr.aut.hb == nil {
		return
	}
	pr.setTimerAfter(st, timerLease, pr.aut.hb.leaseFor(pr.level))
}

// renewNbrLease re-arms the secondary-pointer lease.
func (pr *Process) renewNbrLease(st *objState) {
	if pr.aut.hb == nil {
		return
	}
	pr.setTimerAfter(st, timerNbrLease, pr.aut.hb.leaseFor(pr.level))
}

// onNbrLeaseExpired drops secondary pointers that stopped being
// re-announced (their holder left the path, or the pointers were
// corrupted state to begin with).
func (pr *Process) onNbrLeaseExpired(st *objState) {
	if pr.aut.hb == nil {
		return
	}
	st.nbrptup = hier.NoCluster
	st.nbrptdown = hier.NoCluster
}

// onLeaseExpired tears down stale path state that stopped receiving
// refreshes (e.g. the path below broke at a failed VSA).
func (pr *Process) onLeaseExpired(st *objState) {
	if pr.aut.hb == nil {
		return
	}
	pr.sanitize(st)
	if st.c == hier.NoCluster && st.p == hier.NoCluster {
		return
	}
	st.c = hier.NoCluster
	if st.p != hier.NoCluster {
		dest := st.p
		st.p = hier.NoCluster
		pr.send(st, dest, kindShrink)
	}
	for _, b := range pr.aut.h.Nbrs(pr.id) {
		pr.send(st, b, kindShrinkUpd)
	}
	pr.clearTimer(st, timerGrowShrink)
}
