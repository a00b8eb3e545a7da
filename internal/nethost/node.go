package nethost

import (
	"sync/atomic"

	"vinestalk/internal/geo"
	"vinestalk/internal/sim"
	"vinestalk/internal/vsa"
)

// Node is one region's automaton and the host it runs on. The service's
// executor runs every input of the node — due frames, timer wakeups,
// injected and RunAt functions — one at a time, so the automaton instance
// and Node.State are single-threaded without locks.
//
// Node implements vsa.Host for its automaton, and its app turns the
// automaton's effects into calls of Send, SendFrame, SetTimer and
// ClearTimer. These are only ever called from the node's inputs (the
// automaton steps there), which is what lets the timer table be a plain
// map.
type Node struct {
	svc *Service
	u   geo.RegionID
	inc uint32 // the slot's incarnation this node runs as; set before its first input
	aut vsa.Automaton

	// killed is set by KillRegion, under the service lock; the executor
	// reads it before each input, so a killed node takes no input that a
	// batch still holds for it.
	killed atomic.Bool

	// booted is set once OnStart has run, as the first input. Executor
	// only.
	booted bool

	// State is app-attached per-node storage (e.g. the co-located client's
	// detection flags). Only touch it from app callbacks and the node's
	// inputs.
	State any

	// now is the instant of the input being processed (the restart instant
	// during OnStart): what Now returns. Executor only.
	now sim.Time

	// timers mirrors the automaton's recorded deadlines at the host level,
	// one entry per armed id (an entry leaves when its wakeup is dispatched
	// or the id is cleared): a wakeup is dropped unless it carries exactly
	// the deadline currently armed for its id. A re-armed or cleared id
	// leaves its old wakeup queued; this check (plus the automaton's own
	// slot validation) makes it a no-op. Executor only.
	timers map[vsa.TimerID]sim.Time
}

func newNode(s *Service, u geo.RegionID, at sim.Time) *Node {
	n := &Node{
		svc:    s,
		u:      u,
		now:    at,
		timers: make(map[vsa.TimerID]sim.Time),
	}
	n.aut = s.app.NewAutomaton(u, n)
	return n
}

// Region returns the region this node hosts.
func (n *Node) Region() geo.RegionID { return n.u }

// Automaton returns the node's automaton instance.
func (n *Node) Automaton() vsa.Automaton { return n.aut }

// Service returns the hosting service.
func (n *Node) Service() *Service { return n.svc }

// boot is a restart's queue entry. Whatever input reaches a node first
// runs OnStart before it, so boot itself has nothing left to do; it is
// there so that OnStart runs at the restart instant.
func boot(*Node) {}

// dispatch runs one input on the node, at its instant, unless the node has
// been killed; the node's first input runs OnStart first.
func (n *Node) dispatch(r *release) {
	if n.killed.Load() {
		return
	}
	if !n.booted {
		n.booted = true
		n.svc.app.OnStart(n)
	}
	n.now = r.due
	switch {
	case r.fn != nil:
		r.fn(n)
	case r.payload != nil:
		n.svc.app.DeliverFrame(n, r.kind, r.payload)
	default:
		if at, ok := n.timers[r.id]; !ok || at != r.due {
			return // stale wakeup: re-armed or cleared
		}
		delete(n.timers, r.id)
		n.aut.TimerFire(n.u, r.id, r.due)
	}
}

// Send transmits an app frame to region to, due (held at the destination)
// at absolute virtual time due. kind names the frame for accounting and
// hops charges its hop-work. It copies payload behind the header; an app
// that builds its payload in place uses NewFrame and SendFrame instead.
func (n *Node) Send(to geo.RegionID, due sim.Time, kind string, hops int, payload []byte) {
	n.SendFrame(append(NewFrame(to, due, kind, len(payload)), payload...), hops)
}

// SendFrame transmits a frame NewFrame began, to the region and at the due
// time and kind its header names, charging hops to the kind's hop-work. The
// frame belongs to the service from the call on: the caller must not touch
// it again (the Transport contract).
func (n *Node) SendFrame(frame []byte, hops int) {
	n.svc.send(frame, hops)
}

// RunAt schedules fn as an input of this node at absolute virtual time at
// (app-level timers: heartbeat loops, load generators), in the service
// queue's order; inside fn, Now returns at. If the node dies first, fn
// never runs.
func (n *Node) RunAt(at sim.Time, fn func(*Node)) {
	n.svc.queue(heldEntry{due: at, fn: fn, to: int32(n.u), inc: n.inc})
}

// --- vsa.Host ---

var _ vsa.Host = (*Node)(nil)

// Now implements vsa.Host: the instant of the input being processed — a
// frame's or wakeup's due time, an injected function's Inject time, the
// restart instant during OnStart — not a fresh reading of the clock.
func (n *Node) Now() sim.Time { return n.now }

// --- timers ---

// SetTimer arms (or re-arms) timer id of the node's region to fire at at:
// record the deadline and queue a wakeup carrying exactly that sim.Time;
// dispatch drops it unless id still holds it, and hands the automaton
// TimerFire(u, id, at) otherwise. at = ∞ clears the timer. The wakeup is
// a queue entry naming the node's region, incarnation and id, so arming a
// timer allocates nothing.
func (n *Node) SetTimer(u geo.RegionID, id vsa.TimerID, at sim.Time) {
	if at == sim.Forever {
		n.ClearTimer(u, id)
		return
	}
	n.timers[id] = at
	n.svc.queue(heldEntry{due: at, to: int32(n.u), inc: n.inc, arg: uint64(id)})
}

// ClearTimer disarms timer id of the node's region (deadline ← ∞).
func (n *Node) ClearTimer(u geo.RegionID, id vsa.TimerID) { delete(n.timers, id) }
