package tracker

import (
	"fmt"

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

	// hood is the process's neighbourhood, every cluster Fig. 2 lets its
	// pointers name, ordered by role: ⊥, the cluster itself, its parent
	// (below level MAX), its neighbours hood[nbrLo:nbrHi], then its
	// children. A row keeps each pointer as an index into it (hoodIdx),
	// read through cluster and written through index; nothing outside
	// Process and the region codec sees the index form.
	hood         []hier.ClusterID
	nbrLo, nbrHi hoodIdx

	objs objTable
	// pending holds the finds a row with its finding bit set is holding, in
	// arrival order (part of the machine state). It is a side map because
	// table rows are pointer-free; nil until the first find is held.
	pending map[ObjectID][]FindPayload
	// armedMove counts rows whose grow/shrink timer is armed; the automaton
	// keeps the sum over its processes for Network.MoveQuiescent.
	armedMove int
}

// hoodIdx is a pointer of a row: an index into its process's neighbourhood
// (Process.hood). Fig. 2 types every pointer over that neighbourhood, so one
// byte holds it.
type hoodIdx uint8

// The first entries of every neighbourhood.
const (
	hoodNone   hoodIdx = iota // ⊥
	hoodSelf                  // the process's own cluster
	hoodParent                // its parent; below level MAX only
)

// maxHood is the most entries a neighbourhood's one-byte indices reach: ⊥
// and 255 clusters.
const maxHood = 1 << 8

// hoodSize returns the number of entries of cluster c's neighbourhood.
func hoodSize(h *hier.Hierarchy, c hier.ClusterID) int {
	n := 2 + len(h.Nbrs(c)) + len(h.Children(c))
	if h.Parent(c) != hier.NoCluster {
		n++
	}
	return n
}

// checkHoods refuses a hierarchy with a neighbourhood too large for a row's
// one-byte pointers.
func checkHoods(h *hier.Hierarchy) error {
	for c := 0; c < h.NumClusters(); c++ {
		if n := hoodSize(h, hier.ClusterID(c)); n > maxHood {
			return fmt.Errorf("tracker: cluster %v has %d clusters in its neighbourhood, more than the %d a row's pointer can name",
				hier.ClusterID(c), n-1, maxHood-1)
		}
	}
	return nil
}

// objState is one object's Fig. 2 state vector at this process: a
// pointer-free 16-byte value row of the process's objTable. Field names
// mirror the figure: c (child pointer), p (path parent), nbrptup and
// nbrptdown (secondary tracking pointers), each an index into the process's
// neighbourhood (Process.hood, hoodNone for ⊥), finding, and the timer
// variables — the single grow/shrink timer, nbrtimeout, and the two §VII
// heartbeat leases (inert when the network has no heartbeat configuration:
// lease guards the primary pointers c and p, nbrLease the secondary
// pointers, which are renewed by the growPar/growNbr re-announcements that
// refresh propagation triggers).
//
// A row does not know its process: every action is a Process method taking
// the row. An input action looks the row up once on entry and uses that
// pointer until it returns; this is sound because no action re-enters its
// own table — every send goes through the host's C-gcast, never straight
// into another receive.
type objState struct {
	obj ObjectID

	c, p, nbrptup, nbrptdown hoodIdx

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
	return st.c == hoodNone && st.p == hoodNone &&
		st.nbrptup == hoodNone && st.nbrptdown == hoodNone &&
		st.settled()
}

// newProcess builds the process of cluster id hosted at region. The
// hierarchy has passed checkHoods.
func newProcess(aut *Automaton, id hier.ClusterID, region geo.RegionID) *Process {
	h := aut.h
	hood := make([]hier.ClusterID, 0, hoodSize(h, id))
	hood = append(hood, hier.NoCluster, id)
	if par := h.Parent(id); par != hier.NoCluster {
		hood = append(hood, par)
	}
	nbrLo := hoodIdx(len(hood))
	hood = append(hood, h.Nbrs(id)...)
	nbrHi := hoodIdx(len(hood))
	hood = append(hood, h.Children(id)...)
	return &Process{
		aut:    aut,
		id:     id,
		region: region,
		level:  h.Level(id),
		hood:   hood,
		nbrLo:  nbrLo,
		nbrHi:  nbrHi,
	}
}

// cluster reads a pointer: the cluster index i names, NoCluster for ⊥.
func (pr *Process) cluster(i hoodIdx) hier.ClusterID { return pr.hood[i] }

// index makes a pointer to cluster c: its index in the neighbourhood, and
// false when c is outside it (and NoCluster is ⊥).
func (pr *Process) index(c hier.ClusterID) (hoodIdx, bool) {
	for i, m := range pr.hood {
		if m == c {
			return hoodIdx(i), true
		}
	}
	return hoodNone, false
}

// isNbr reports whether i names a neighbour of the process.
func (pr *Process) isNbr(i hoodIdx) bool { return pr.nbrLo <= i && i < pr.nbrHi }

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
	*scratch = objState{obj: obj}
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
	return pr.cluster(st.c), pr.cluster(st.p), pr.cluster(st.nbrptup), pr.cluster(st.nbrptdown)
}

// LiveObjects returns how many objects currently hold a state vector at
// this process — the quantity the quiescence eviction keeps proportional
// to objects rooted through the process.
func (pr *Process) LiveObjects() int { return pr.objs.len() }

// receive dispatches a C-gcast delivery to the Fig. 2 input actions of the
// addressed object's state vector.
//
// A grow, growNbr, growPar, shrink, shrinkUpd or refresh names its sender
// in a pointer, and Fig. 2's signature takes them only from the process's
// neighbourhood. One from outside it, which only hostile or corrupt input
// carries, is ignored; its delivery is already accounted.
func (pr *Process) receive(d *cgcast.Delivery) {
	// Client-originated grow/shrink name the level-0 cluster itself (the
	// client broadcast an object detection for this region).
	cid := d.From
	if cid == hier.NoCluster {
		cid = pr.id
	}
	var from hoodIdx
	switch d.Kind {
	case KindGrow, KindGrowNbr, KindGrowPar, KindShrink, KindShrinkUpd, KindRefresh:
		var inHood bool
		if from, inHood = pr.index(cid); !inHood {
			return
		}
	}
	var scratch objState
	st, held := pr.enter(ObjectID(d.Obj), &scratch)
	pr.sanitize(st)
	switch d.Kind {
	case KindGrow:
		pr.aut.out.noteGrow(pr.region, pr.level)
		pr.onGrow(st, from)
	case KindGrowNbr:
		pr.onGrowNbr(st, from)
	case KindGrowPar:
		pr.onGrowPar(st, from)
	case KindShrink:
		pr.onShrink(st, from)
	case KindShrinkUpd:
		pr.onShrinkUpd(st, from)
	case KindFind:
		pr.onFind(st, findsOf(&d.Body))
	case KindFindQuery:
		pr.onFindQuery(st, cid)
	case KindFindAck:
		pr.onFindAck(st, hier.ClusterID(d.Arg))
	case KindRefresh:
		pr.onRefresh(st, from, int(d.Arg))
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
	pr.sendBody(to, kind, st.obj, 0, nil)
}

// sendArg emits a message carrying one scalar (findAck's pointer, refresh's
// hop count).
func (pr *Process) sendArg(st *objState, to hier.ClusterID, kind kindCode, arg int32) {
	pr.sendBody(to, kind, st.obj, arg, nil)
}

// sendBody fills the automaton's send scratch field by field and hands it to
// the outlet. A sendEffect literal would be built on the stack and copied
// into the call with wide loads, and a wide load of narrow stores waits
// until every older store — the last send's frame entry, often on a cold
// line — has reached the cache.
func (pr *Process) sendBody(to hier.ClusterID, kind kindCode, obj ObjectID, arg int32, payload any) {
	e := &pr.aut.sending
	e.From, e.Backup, e.Kind, e.To = pr.id, pr.backup, kind, to
	e.Body.Obj, e.Body.Arg, e.Body.Mark, e.Body.Payload = int32(obj), arg, 0, payload
	pr.aut.out.send(pr.region, e)
	e.Body.Payload = nil // the scratch pins no find payload between sends
}

// --- Move-related actions (Fig. 2, left column) ---

// onGrow is Input cTOBrcv(〈grow, cid〉): the timer is armed only when the
// process is off the path entirely (c = p = ⊥) and below MAX; c always
// adopts the sender (a newer path supersedes what a pending grow will
// report upward).
func (pr *Process) onGrow(st *objState, from hoodIdx) {
	if st.c == hoodNone && st.p == hoodNone && pr.level != pr.aut.maxLevel {
		pr.setTimerAfter(st, timerGrowShrink, pr.aut.sched.G[pr.level])
	}
	st.c = from
	pr.renewLease(st)
}

// onGrowNbr is Input cTOBrcv(〈growNbr, cid〉): the sender connected to the
// path via a lateral link. A neighbour has one connection kind, so an
// nbrptup naming the sender is stale and goes. Without failures a shrinkUpd
// always clears it first; a sender whose state was lost or corrupted never
// sent one, and its re-announcements renew the shared secondary lease, so
// without this the stale pointer would outlive every lease and could lead a
// grow into a lateral cycle.
func (pr *Process) onGrowNbr(st *objState, from hoodIdx) {
	if st.nbrptup == from {
		st.nbrptup = hoodNone
	}
	st.nbrptdown = from
	pr.renewNbrLease(st)
}

// onGrowPar is Input cTOBrcv(〈growPar, cid〉): the sender connected to the
// path via its hierarchy parent, so an nbrptdown naming it is stale
// (onGrowNbr).
func (pr *Process) onGrowPar(st *objState, from hoodIdx) {
	if st.nbrptdown == from {
		st.nbrptdown = hoodNone
	}
	st.nbrptup = from
	pr.renewNbrLease(st)
}

// onShrink is Input cTOBrcv(〈shrink, cid〉): only deadwood is cleaned — the
// message is ignored unless c still names the shrinking child.
func (pr *Process) onShrink(st *objState, from hoodIdx) {
	if st.c != from {
		return
	}
	st.c = hoodNone
	if pr.level != pr.aut.maxLevel {
		pr.setTimerAfter(st, timerGrowShrink, pr.aut.sched.S[pr.level])
	}
}

// onShrinkUpd is Input cTOBrcv(〈shrinkUpd, cid〉): drop secondary pointers
// to a process that left the path.
func (pr *Process) onShrinkUpd(st *objState, from hoodIdx) {
	if st.nbrptup == from {
		st.nbrptup = hoodNone
	}
	if st.nbrptdown == from {
		st.nbrptdown = hoodNone
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
	case st.c != hoodNone && st.p == hoodNone && pr.level != pr.aut.maxLevel:
		lateral := st.nbrptup != hoodNone && !pr.aut.noLateral
		st.p = st.nbrptup
		if !lateral {
			st.p = hoodParent
		}
		pr.send(st, pr.cluster(st.p), kindGrow)
		kind := kindGrowPar
		if lateral {
			kind = kindGrowNbr
		}
		for _, b := range h.Nbrs(pr.id) {
			pr.send(st, b, kind)
		}
		pr.renewLease(st)
	case st.c == hoodNone && st.p != hoodNone:
		dest := pr.cluster(st.p)
		st.p = hoodNone
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
	case st.c != hoodNone:
		pr.sendArg(st, cid, kindFindAck, int32(pr.cluster(st.c)))
	case st.nbrptdown != hoodNone:
		pr.sendArg(st, cid, kindFindAck, int32(pr.cluster(st.nbrptdown)))
	case st.nbrptup != hoodNone:
		pr.sendArg(st, cid, kindFindAck, int32(pr.cluster(st.nbrptup)))
	}
}

// onFindAck is Input cTOBrcv(〈findAck, dest〉): forward the held find to
// the acked pointer if the process is still searching and still has no
// pointer of its own.
func (pr *Process) onFindAck(st *objState, dest hier.ClusterID) {
	if !st.finding || dest == pr.id {
		return
	}
	if st.c != hoodNone || st.nbrptdown != hoodNone {
		return
	}
	if st.nbrptup != hoodNone && st.nbrptup != st.p {
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
	case st.c == hoodSelf:
		// Tracing complete: broadcast found to clients in this and
		// neighboring regions.
		pr.aut.out.found(pr.region, foundEffect{From: pr.id, Backup: pr.backup, Obj: st.obj, Payloads: pr.takeFinds(st)})
	case st.c != hoodNone:
		pr.forwardFind(st, pr.cluster(st.c))
	case st.nbrptdown != hoodNone:
		pr.forwardFind(st, pr.cluster(st.nbrptdown))
	case st.nbrptup != hoodNone && st.nbrptup != st.p:
		pr.forwardFind(st, pr.cluster(st.nbrptup))
	case !st.armed(timerNbrTimeout):
		// Internal findquery: ask every neighbor except the path parent,
		// and wait one neighbor round trip. The +1ns margin makes an ack
		// arriving at exactly the round-trip bound win over the timeout
		// (TIOA would resolve the tie either way; the paper intends the
		// ack to count as "received before nbrtimeout expires").
		pr.aut.out.noteQuery(pr.region, pr.level)
		pr.setTimerAfter(st, timerNbrTimeout, 2*pr.aut.unit*sim.Time(pr.aut.geom.N[pr.level])+1)
		p := pr.cluster(st.p)
		for _, b := range h.Nbrs(pr.id) {
			if b == p {
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
	if st.c != hoodNone || st.nbrptdown != hoodNone {
		// A pointer appeared as the timeout fired; the direct forwards
		// handle it.
		pr.evaluateFind(st)
		return
	}
	dest := pr.cluster(st.nbrptup)
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
	pr.sendBody(dest, kindFind, st.obj, 0, findsPayload(pr.takeFinds(st)))
}

// --- §VII heartbeat extension ---

// onRefresh renews the lease and heals path breaks: a process that lost its
// state to a VSA failure re-adopts the refreshing child and re-grows toward
// the root; an intact process forwards the refresh along its path parent.
func (pr *Process) onRefresh(st *objState, from hoodIdx, hops int) {
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
	st.c = from
	pr.renewLease(st)
	switch {
	case st.p != hoodNone:
		pr.sendArg(st, pr.cluster(st.p), kindRefresh, int32(hops+1))
		// Re-announce the connection kind so neighbors' secondary
		// pointers (and their leases) stay fresh.
		kind := kindGrowPar
		if pr.isNbr(st.p) {
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
// the hierarchy parent; secondary pointers must be neighbors. A pointer
// names a member of the neighbourhood, whose roles are index ranges, so
// each test is a comparison of indices. A member in the wrong role (p a
// child, c the process itself above level 0) can only arise from
// corruption and is dropped on the spot; a value outside the neighbourhood
// is not representable, and is refused where it would enter (receive,
// DecodeRegion). Only active in heartbeat mode (in normal operation the
// protocol preserves the invariants, which the E5 checker verifies).
func (pr *Process) sanitize(st *objState) {
	if pr.aut.hb == nil {
		return
	}
	if c := st.c; c != hoodNone && c < pr.nbrLo && !(c == hoodSelf && pr.level == 0) {
		st.c = hoodNone // the process itself or its parent
	}
	if p := st.p; p == hoodSelf || p >= pr.nbrHi {
		st.p = hoodNone // the process itself or a child
	}
	if !pr.isNbr(st.nbrptup) {
		st.nbrptup = hoodNone
	}
	if !pr.isNbr(st.nbrptdown) {
		st.nbrptdown = hoodNone
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
	st.nbrptup = hoodNone
	st.nbrptdown = hoodNone
}

// onLeaseExpired tears down stale path state that stopped receiving
// refreshes (e.g. the path below broke at a failed VSA).
func (pr *Process) onLeaseExpired(st *objState) {
	if pr.aut.hb == nil {
		return
	}
	pr.sanitize(st)
	if st.c == hoodNone && st.p == hoodNone {
		return
	}
	st.c = hoodNone
	if st.p != hoodNone {
		dest := pr.cluster(st.p)
		st.p = hoodNone
		pr.send(st, dest, kindShrink)
	}
	for _, b := range pr.aut.h.Nbrs(pr.id) {
		pr.send(st, b, kindShrinkUpd)
	}
	pr.clearTimer(st, timerGrowShrink)
}
