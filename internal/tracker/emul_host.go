package tracker

import (
	"fmt"
	"slices"

	"vinestalk/internal/cgcast"
	"vinestalk/internal/emul"
	"vinestalk/internal/geo"
	"vinestalk/internal/sim"
	"vinestalk/internal/trace"
	"vinestalk/internal/vsa"
)

// emulHost runs the Tracker automaton on the replicated mobile-node
// emulator: it is simultaneously the automaton's vsa.Host and the
// emulator's emul.Program.
//
// Data path inward: a C-gcast delivery reaches emulRegionHandler.Receive,
// which submits it as an emulator input. The input is broadcast within the
// region, sequenced by the leader, and executed via Step — which decodes
// the region's replicated state into the shared Automaton instance,
// dispatches the input, and re-encodes.
//
// Data path outward: effects and timer (re)arms the automaton emits during
// a Step are collected as the Step's outputs (keeping Step a pure state
// transformer). The emulator invokes the output sink exactly once per
// output — for the leader's execution, at commit time — and only then does
// the host act on the world: protocol sends go out, host wakeup timers are
// armed. Follower replicas re-execute Step to advance their state copies;
// their outputs are discarded by the emulator.
//
// Timer wakeups are advisory: a fired host timer submits an input carrying
// the armed deadline, and Automaton.TimerFire ignores it unless the slot
// still records exactly that deadline — so stale wakeups across leader
// handoffs, checkpoint adoptions, and region restarts are harmless.
type emulHost struct {
	net *Network
	aut *Automaton
	k   *sim.Kernel
	em  *emul.Emulator

	wakeups *keyedWakeups

	// uncommitted holds, per region, the in-transit tickets of the
	// deliveries submitted to the region and not yet committed: a ticket
	// leaves at its recv commit, or is resolved as a drop when the region's
	// failure or restart discards its input.
	uncommitted [][]uint64

	// collecting, while non-nil, redirects host calls into the current
	// Step's output list instead of executing them. Steps never nest (the
	// emulator commits inputs sequentially), but the pointer is
	// saved/restored around each Step regardless.
	collecting *[]emul.Output
}

// emulDeliver is the emulator input carrying one C-gcast delivery: a copy,
// since the emulator keeps inputs past the call that delivered them.
type emulDeliver struct {
	U     geo.RegionID
	Level int
	Del   cgcast.Delivery
}

// emulTimerFire is the emulator input carrying one host timer wakeup. At
// is the deadline the wakeup was armed for; the automaton validates it
// against the slot's recorded deadline.
type emulTimerFire struct {
	U  geo.RegionID
	ID vsa.TimerID
	At sim.Time
}

// timerArmOut and timerClearOut are Step outputs mirroring the automaton's
// timer-slot writes; the sink applies them to the host's wakeup service at
// commit time.
type timerArmOut struct {
	U  geo.RegionID
	ID vsa.TimerID
	At sim.Time
}

type timerClearOut struct {
	U  geo.RegionID
	ID vsa.TimerID
}

func newEmulHost(n *Network, a *Automaton, delta, tRestart sim.Time) *emulHost {
	h := &emulHost{net: n, aut: a, k: n.k, uncommitted: make([][]uint64, len(a.regions))}
	// A wakeup is routed through the emulator as a regular input, carrying
	// the deadline it was armed for.
	h.wakeups = newKeyedWakeups(n.k, len(a.regions), func(u geo.RegionID, id vsa.TimerID, at sim.Time) {
		_ = h.em.Submit(u, emulTimerFire{U: u, ID: id, At: at})
	})
	h.em = emul.New(n.k, n.h.Tiling(), h, delta, tRestart,
		emul.WithOutputSink(h.applyOutput),
		emul.WithRegionEvents(h.onRegionEvent),
	)
	return h
}

var (
	_ vsa.Host     = (*emulHost)(nil)
	_ emul.Program = (*emulHost)(nil)
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

// --- vsa.Host ---

func (h *emulHost) Now() sim.Time { return h.k.Now() }

func (h *emulHost) SetTimer(u geo.RegionID, id vsa.TimerID, at sim.Time) {
	if h.collecting != nil {
		*h.collecting = append(*h.collecting, emul.Output{Msg: timerArmOut{U: u, ID: id, At: at}})
		return
	}
	h.wakeups.arm(u, id, at)
}

func (h *emulHost) ClearTimer(u geo.RegionID, id vsa.TimerID) {
	if h.collecting != nil {
		*h.collecting = append(*h.collecting, emul.Output{Msg: timerClearOut{U: u, ID: id}})
		return
	}
	h.wakeups.disarm(u, id)
}

func (h *emulHost) Emit(u geo.RegionID, effect any) {
	if h.collecting != nil {
		*h.collecting = append(*h.collecting, emul.Output{Msg: effect})
		return
	}
	h.net.execEffect(effect)
}

// --- emul.Program ---

func (h *emulHost) Init(u geo.RegionID) []byte {
	return h.aut.encodeInitialRegion(u)
}

func (h *emulHost) Step(state []byte, in emul.Input) (next []byte, outputs []emul.Output) {
	var outs []emul.Output
	prev := h.collecting
	h.collecting = &outs
	defer func() { h.collecting = prev }()

	var u geo.RegionID
	switch m := in.Msg.(type) {
	case emulDeliver:
		u = m.U
		if err := h.aut.DecodeRegion(u, state); err != nil {
			return state, nil
		}
		h.aut.Deliver(u, m.Level, &m.Del)
	case emulTimerFire:
		u = m.U
		if err := h.aut.DecodeRegion(u, state); err != nil {
			return state, nil
		}
		h.aut.TimerFire(u, m.ID, m.At)
	default:
		return state, nil
	}
	return h.aut.EncodeRegion(u), outs
}

// --- emulator callbacks ---

// applyOutput executes one committed leader output against the world.
func (h *emulHost) applyOutput(u geo.RegionID, out emul.Output) {
	switch m := out.Msg.(type) {
	case timerArmOut:
		h.wakeups.arm(m.U, m.ID, m.At)
	case timerClearOut:
		h.wakeups.disarm(m.U, m.ID)
	case recvNoteEffect:
		marks := h.uncommitted[u]
		if i := slices.Index(marks, m.Del.Mark); i >= 0 {
			h.uncommitted[u] = slices.Delete(marks, i, i+1)
		}
		h.net.execEffect(out.Msg)
	default:
		h.net.execEffect(out.Msg)
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
	if h.em.Submit(rh.u, emulDeliver{U: rh.u, Level: level, Del: *del}) == nil && del.Mark != 0 {
		h.uncommitted[rh.u] = append(h.uncommitted[rh.u], del.Mark)
	}
}

// Reset is a no-op: in emulation mode the abstract layer is always alive
// and all failure dynamics come from emulating-node churn.
func (rh emulRegionHandler) Reset() {}
