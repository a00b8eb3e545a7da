package nethost

import (
	"vinestalk/internal/geo"
	"vinestalk/internal/sim"
	"vinestalk/internal/vsa"
)

// Node runs one region's automaton on its own goroutine. Every input —
// due frames, timer wakeups, injected functions — arrives through the
// mailbox and is processed sequentially, so the automaton instance and
// Node.State are single-threaded without locks.
//
// Node implements vsa.Host for its automaton. The host methods are only
// ever called from the node goroutine (the automaton steps there), which
// is what lets the timer table be a plain map.
type Node struct {
	svc  *Service
	u    geo.RegionID
	inc  uint32 // the slot's incarnation this node runs as; set before run
	aut  vsa.Automaton
	dead chan struct{}
	mb   *mailbox

	// State is app-attached per-node storage (e.g. the co-located client's
	// detection flags). Only touch it from app callbacks, which all run on
	// the node goroutine.
	State any

	// now is the instant of the input being processed (the restart instant
	// during OnStart): what Now returns. Node-goroutine only.
	now sim.Time

	// timers mirrors the automaton's recorded deadlines at the host level,
	// one entry per armed id (an entry leaves when its wakeup is dispatched
	// or the id is cleared): a wakeup is dropped unless it carries exactly
	// the deadline currently armed for its id. A re-armed or cleared id
	// leaves its old wakeup queued; this check (plus the automaton's own
	// slot validation) makes it a no-op. Node-goroutine only.
	timers map[vsa.TimerID]sim.Time
}

// mbMsg is one mailbox input, for instant at: an injected or RunAt
// function, a timer wakeup, or else a due frame.
type mbMsg struct {
	fn      func(*Node)
	wake    bool
	id      vsa.TimerID
	at      sim.Time
	kind    string
	payload []byte
}

func newNode(s *Service, u geo.RegionID, at sim.Time) *Node {
	n := &Node{
		svc:    s,
		u:      u,
		dead:   make(chan struct{}),
		mb:     newMailbox(),
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

func (n *Node) run() {
	defer n.svc.wg.Done()
	n.svc.app.OnStart(n)
	for {
		select {
		case <-n.dead:
			return
		case <-n.mb.ready:
		}
		for m, ok := n.mb.pop(); ok; m, ok = n.mb.pop() {
			n.dispatch(m)
		}
	}
}

func (n *Node) dispatch(m mbMsg) {
	n.now = m.at
	switch {
	case m.fn != nil:
		m.fn(n)
	case m.wake:
		if at, ok := n.timers[m.id]; !ok || at != m.at {
			return // stale wakeup: re-armed, cleared, or armed by a dead node
		}
		delete(n.timers, m.id)
		n.aut.TimerFire(n.u, m.id, m.at)
	default:
		n.svc.app.DeliverFrame(n, m.kind, m.payload)
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

// RunAt schedules fn on this node's goroutine at absolute virtual time at
// (app-level timers: heartbeat loops, load generators), in the service
// queue's order; inside fn, Now returns at. If the node dies first, fn
// never runs.
func (n *Node) RunAt(at sim.Time, fn func(*Node)) {
	n.svc.queue(heldEntry{due: at, fire: func() { n.mb.post(mbMsg{fn: fn, at: at}) }})
}

// --- vsa.Host ---

var _ vsa.Host = (*Node)(nil)

// Now implements vsa.Host: the instant of the input being processed — a
// frame's or wakeup's due time, an injected function's Inject time, the
// restart instant during OnStart — not a fresh reading of the clock.
func (n *Node) Now() sim.Time { return n.now }

// SetTimer implements vsa.Host: record the deadline and queue a wakeup
// carrying exactly that sim.Time; dispatch drops it unless id still holds it.
// The wakeup is a queue entry naming the node's region, incarnation and id,
// so arming a timer allocates nothing.
func (n *Node) SetTimer(u geo.RegionID, id vsa.TimerID, at sim.Time) {
	if at == sim.Forever {
		n.ClearTimer(u, id)
		return
	}
	n.timers[id] = at
	n.svc.queue(heldEntry{due: at, to: int32(n.u), inc: n.inc, arg: uint64(id)})
}

// ClearTimer implements vsa.Host.
func (n *Node) ClearTimer(u geo.RegionID, id vsa.TimerID) { delete(n.timers, id) }

// Emit implements vsa.Host and drops the effect: the networked host takes
// no effect values. An app wires its automaton to the node through its own
// typed calls (Send, SendFrame, SetTimer), so no effect is boxed on the way
// to the wire.
func (n *Node) Emit(u geo.RegionID, effect any) {}
