package tracker

import (
	"fmt"
	"slices"

	"vinestalk/internal/cgcast"
	"vinestalk/internal/emul"
	"vinestalk/internal/geo"
	"vinestalk/internal/hier"
	"vinestalk/internal/sim"
	"vinestalk/internal/trace"
	"vinestalk/internal/vsa"
)

// emulHost runs the Tracker automaton on the replicated mobile-node
// emulator: it is at once the automaton's vsa.Host and outlet and the
// emulator's emul.Program.
//
// Data path inward: a C-gcast delivery reaches emulRegionHandler.Receive,
// which submits it as an emulator input. The input is broadcast within the
// region, sequenced by the leader, and executed via Step — which decodes
// the region's replicated state into the shared Automaton instance,
// dispatches the input, and re-encodes.
//
// Data path outward: the effects and timer writes the automaton hands its
// outlet during a Step are logged, in emission order, as the Step's outputs
// (keeping Step a pure state transformer). The emulator invokes the output
// sink exactly once per output — for the leader's execution, at commit
// time — and only then does the host act on the world: protocol sends go
// out, host wakeup timers are armed. Follower replicas re-execute Step to
// advance their state copies; their outputs are discarded by the emulator.
//
// Timer wakeups are advisory: a fired host timer submits an input carrying
// the armed deadline, and Automaton.TimerFire ignores it unless the slot
// still records exactly that deadline — so stale wakeups across leader
// handoffs, checkpoint adoptions, and region restarts are harmless.
type emulHost struct {
	net *Network
	aut *Automaton
	k   *sim.Kernel
	em  *Emulator

	wakeups *keyedWakeups

	// uncommitted holds, per region, the in-transit tickets of the
	// deliveries submitted to the region and not yet committed: a ticket
	// leaves at its recv commit, or is resolved as a drop when the region's
	// failure or restart discards its input.
	uncommitted [][]uint64

	// log is the running Step's effects, in emission order; its array is
	// reused by every Step, since the emulator hands the leader's outputs to
	// the sink before the next Step runs. stepping is set while a Step runs:
	// an effect emitted outside one is executed at once.
	log      []emulEffect
	stepping bool
}

// emulInput is one input of a region's emulated machine: a C-gcast
// delivery to the process at level (a copy, since the emulator keeps inputs
// past the call that delivered them), or, when wakeup is set, a host timer
// wakeup of timer id armed for deadline at, which the automaton validates
// against the slot's recorded deadline.
type emulInput struct {
	u      geo.RegionID
	level  int
	del    cgcast.Delivery
	wakeup bool
	id     vsa.TimerID
	at     sim.Time
}

// effectTag names which outlet call an emulEffect records.
type effectTag uint8

const (
	effSend effectTag = iota
	effFound
	effRecv
	effGrow
	effQuery
	effTimer
)

// emulEffect is one outlet call of a Step, deferred to the leader's commit:
// tag says which call, and so which fields are set. A recv keeps a copy of
// its delivery; a timer write keeps id and at, with at = ∞ for a clear.
type emulEffect struct {
	tag   effectTag
	level int            // recv, grow, query
	to    hier.ClusterID // recv
	id    vsa.TimerID    // timer
	at    sim.Time       // timer
	send  sendEffect
	found foundEffect
	del   cgcast.Delivery // recv
}

func newEmulHost(n *Network, a *Automaton, delta, tRestart sim.Time) *emulHost {
	h := &emulHost{net: n, aut: a, k: n.k, uncommitted: make([][]uint64, len(a.regions))}
	// A wakeup is routed through the emulator as a regular input, carrying
	// the deadline it was armed for.
	h.wakeups = newKeyedWakeups(n.k, len(a.regions), func(u geo.RegionID, id vsa.TimerID, at sim.Time) {
		_ = h.em.Submit(u, emulInput{u: u, wakeup: true, id: id, at: at})
	})
	h.em = emul.New[emulInput](n.k, n.h.Tiling(), h, delta, tRestart, h.applyOutput, h.onRegionEvent)
	return h
}

var (
	_ vsa.Host                            = (*emulHost)(nil)
	_ outlet                              = (*emulHost)(nil)
	_ emul.Program[emulInput, emulEffect] = (*emulHost)(nil)
)

// keyedWakeups is the emulated host's wakeup service: the pool of
// hostTimers, found through a (region, id) → ref map. The emulated host's
// rows are decoded afresh for every input, so a ref cannot live in them;
// this map is the only (region, id) index of wakeups. An entry is present
// exactly while its wakeup is armed.
type keyedWakeups struct {
	hostTimers
	refs []map[vsa.TimerID]int32 // by region; nil until its first arm
}

// newKeyedWakeups builds an empty service for regions 0 … regions−1 whose
// wakeups call fire with the deadline they were armed for.
func newKeyedWakeups(k *sim.Kernel, regions int, fire func(geo.RegionID, vsa.TimerID, sim.Time)) *keyedWakeups {
	kw := &keyedWakeups{refs: make([]map[vsa.TimerID]int32, regions)}
	kw.hostTimers = newHostTimers(k, regions, func(u geo.RegionID, id vsa.TimerID, at sim.Time) {
		delete(kw.refs[u], id)
		fire(u, id, at)
	})
	return kw
}

// arm sets (or re-sets) the wakeup of (u, id) to at.
func (kw *keyedWakeups) arm(u geo.RegionID, id vsa.TimerID, at sim.Time) {
	m := kw.refs[u]
	if m == nil {
		m = make(map[vsa.TimerID]int32)
		kw.refs[u] = m
	}
	m[id] = kw.hostTimers.arm(m[id], u, id, at)
}

// disarm cancels the wakeup of (u, id), if armed.
func (kw *keyedWakeups) disarm(u geo.RegionID, id vsa.TimerID) {
	if ref, ok := kw.refs[u][id]; ok {
		kw.hostTimers.disarm(ref, u, id)
		delete(kw.refs[u], id)
	}
}

// disarmRegion cancels every wakeup of region u.
func (kw *keyedWakeups) disarmRegion(u geo.RegionID) {
	for id, ref := range kw.refs[u] {
		kw.hostTimers.disarm(ref, u, id)
	}
	clear(kw.refs[u])
}

func (h *emulHost) Now() sim.Time { return h.k.Now() }

// --- outlet ---

// effect logs e while a Step runs and executes it at once otherwise.
func (h *emulHost) effect(u geo.RegionID, e emulEffect) {
	if h.stepping {
		h.log = append(h.log, e)
		return
	}
	h.applyOutput(u, e)
}

// send logs a copy of e: the automaton reuses e for its next send.
func (h *emulHost) send(u geo.RegionID, e *sendEffect) {
	h.effect(u, emulEffect{tag: effSend, send: *e})
}
func (h *emulHost) found(u geo.RegionID, e foundEffect) {
	h.effect(u, emulEffect{tag: effFound, found: e})
}
func (h *emulHost) recv(u geo.RegionID, to hier.ClusterID, level int, d *cgcast.Delivery) {
	h.effect(u, emulEffect{tag: effRecv, to: to, level: level, del: *d})
}
func (h *emulHost) noteGrow(u geo.RegionID, level int) {
	h.effect(u, emulEffect{tag: effGrow, level: level})
}
func (h *emulHost) noteQuery(u geo.RegionID, level int) {
	h.effect(u, emulEffect{tag: effQuery, level: level})
}

// timer logs the timer write; the host keeps its own (region, id) index of
// wakeups, so no ref is kept.
func (h *emulHost) timer(u geo.RegionID, id vsa.TimerID, at sim.Time, _ int32) int32 {
	h.effect(u, emulEffect{tag: effTimer, id: id, at: at})
	return 0
}

// --- emul.Program ---

func (h *emulHost) Init(u geo.RegionID) []byte {
	return h.aut.encodeInitialRegion(u)
}

func (h *emulHost) Step(state []byte, in emul.Input[emulInput]) (next []byte, outputs []emulEffect) {
	m := &in.Msg
	h.log, h.stepping = h.log[:0], true
	err := h.aut.DecodeRegion(m.u, state)
	if err == nil && m.wakeup {
		h.aut.TimerFire(m.u, m.id, m.at)
	} else if err == nil {
		h.aut.Deliver(m.u, m.level, &m.del)
	}
	h.stepping = false
	if err != nil {
		return state, nil
	}
	return h.aut.EncodeRegion(m.u), h.log
}

// --- emulator callbacks ---

// applyOutput executes one committed leader effect of region u against the
// world.
func (h *emulHost) applyOutput(u geo.RegionID, e emulEffect) {
	n := h.net
	switch e.tag {
	case effSend:
		n.execSend(&e.send)
	case effFound:
		n.execFound(e.found)
	case effRecv:
		marks := h.uncommitted[u]
		if i := slices.Index(marks, e.del.Mark); i >= 0 {
			h.uncommitted[u] = slices.Delete(marks, i, i+1)
		}
		n.execRecv(e.to, e.level, &e.del)
	case effGrow:
		n.noteGrow(e.level)
	case effQuery:
		n.noteFindQuery(e.level)
	case effTimer:
		if e.at == sim.Forever {
			h.wakeups.disarm(u, e.id)
		} else {
			h.wakeups.arm(u, e.id, e.at)
		}
	}
}

// onRegionEvent reconciles host-side state with the emulated VSA's
// lifecycle and makes the transition visible in the trace.
func (h *emulHost) onRegionEvent(ev emul.RegionEvent) {
	n := h.net
	detail := ""
	switch ev.Kind {
	case emul.RegionFailed:
		// The region's machine state died with its nodes: drop the shared
		// instance's mirror, every pending host wakeup for the region and
		// every input it had not committed.
		h.dropRegion(ev.U)
		detail = "state lost with emulating nodes"
	case emul.RegionRestarted:
		// Replicas restart from the initial state; mirror that.
		h.dropRegion(ev.U)
		detail = fmt.Sprintf("leader %v from initial state", ev.Leader)
	case emul.LeaderChanged:
		detail = fmt.Sprintf("leader %v took over", ev.Leader)
	}
	n.tr.Emit(trace.Event{
		At: h.k.Now(), Kind: "emul", Obj: -1, Msg: ev.Kind.String(),
		From: -1, To: -1, Region: int32(ev.U), Level: -1, Detail: detail,
	})
}

// dropRegion forgets region u's machine state, its host wakeups and its
// uncommitted inputs. The emulator discards those inputs with the region, so
// their deliveries resolve as drops, as at a delivery to a dead region.
func (h *emulHost) dropRegion(u geo.RegionID) {
	h.wakeups.disarmRegion(u)
	h.aut.dropRegionState(u)
	for _, mark := range h.uncommitted[u] {
		h.net.resolve(mark)
	}
	h.uncommitted[u] = h.uncommitted[u][:0]
}

// emulRegionHandler bridges the abstract VSA layer to the emulator: a
// delivery for region u becomes an emulator input. The layer is expected
// to be built always-alive in emulation mode — region liveness (failure,
// restart, leader identity) is the emulator's authority.
type emulRegionHandler struct {
	host *emulHost
	u    geo.RegionID
}

var _ vsa.VSAHandler = emulRegionHandler{}

func (rh emulRegionHandler) Receive(level int, msg any) {
	h := rh.host
	del, ok := msg.(*cgcast.Delivery)
	if !ok {
		return
	}
	if !h.em.Alive(rh.u) {
		// The emulated VSA is down: the message dies here, exactly like a
		// delivery to a dead abstract VSA. Settle the in-transit accounting
		// so the quiescence detector does not wait on a message that can
		// never commit (a post-restart incarnation drops pre-failure
		// inputs).
		h.net.noteDropped(rh.u, level, del)
		return
	}
	if h.em.Submit(rh.u, emulInput{u: rh.u, level: level, del: *del}) == nil && del.Mark != 0 {
		h.uncommitted[rh.u] = append(h.uncommitted[rh.u], del.Mark)
	}
}

// Reset is a no-op: in emulation mode the abstract layer is always alive
// and all failure dynamics come from emulating-node churn.
func (rh emulRegionHandler) Reset() {}
