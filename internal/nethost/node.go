package nethost

import (
	"time"

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
// is what lets the timer table be plain maps.
type Node struct {
	svc  *Service
	u    geo.RegionID
	aut  vsa.Automaton
	dead chan struct{}
	mb   *mailbox

	// State is app-attached per-node storage (e.g. the co-located client's
	// detection flags). Only touch it from app callbacks, which all run on
	// the node goroutine.
	State any

	// timers mirrors the automaton's recorded deadlines at the host level,
	// one entry per armed id (an entry leaves when its wakeup is dispatched
	// or the id is cleared): a wall-clock wakeup is dropped unless it
	// carries exactly the deadline currently armed for its id. Wall timers
	// can fire late and race a re-arm; this check (plus the automaton's own
	// slot validation) makes stale wakeups no-ops. Node-goroutine only.
	timers map[vsa.TimerID]wallTimer
}

// wallTimer is one armed deadline and the wall timer that will post it.
type wallTimer struct {
	at sim.Time
	t  *time.Timer
}

// mbMsg is one mailbox input: an injected function, a timer wakeup, or
// else a due frame.
type mbMsg struct {
	fn      func(*Node)
	wake    bool
	id      vsa.TimerID
	at      sim.Time
	kind    string
	payload []byte
}

func newNode(s *Service, u geo.RegionID) *Node {
	n := &Node{
		svc:    s,
		u:      u,
		dead:   make(chan struct{}),
		mb:     newMailbox(),
		timers: make(map[vsa.TimerID]wallTimer),
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
	defer n.stopWallTimers()
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
	switch {
	case m.fn != nil:
		m.fn(n)
	case m.wake:
		if w, ok := n.timers[m.id]; !ok || w.at != m.at {
			return // stale wakeup: re-armed, cleared, or from a dead timer
		}
		delete(n.timers, m.id)
		// The wakeup carries the exact sim.Time the slot was armed for —
		// never a wall reading converted back — so the automaton's
		// slot.at == at equality check cannot be lost to clock skew.
		n.aut.TimerFire(n.u, m.id, m.at)
	default:
		n.svc.app.DeliverFrame(n, m.kind, m.payload)
	}
}

// Send transmits an app frame to region to, due (held at the destination)
// at absolute virtual time due. kind names the frame for accounting and
// hops charges its hop-work.
func (n *Node) Send(to geo.RegionID, due sim.Time, kind string, hops int, payload []byte) {
	n.svc.send(to, due, kind, hops, payload)
}

// RunAt schedules fn on this node's goroutine at absolute virtual time at
// (app-level timers: heartbeat loops, load generators). If the node dies
// first, fn never runs.
func (n *Node) RunAt(at sim.Time, fn func(*Node)) {
	delay := time.Duration(at - n.svc.Now())
	time.AfterFunc(delay, func() { n.mb.post(mbMsg{fn: fn}) })
}

// --- vsa.Host ---

var _ vsa.Host = (*Node)(nil)

// Now implements vsa.Host: virtual time is wall time since service start.
func (n *Node) Now() sim.Time { return n.svc.Now() }

// SetTimer implements vsa.Host: record the deadline and arm a wall timer
// that posts an advisory wakeup carrying exactly the recorded sim.Time.
func (n *Node) SetTimer(u geo.RegionID, id vsa.TimerID, at sim.Time) {
	if at == sim.Forever {
		n.ClearTimer(u, id)
		return
	}
	if w, ok := n.timers[id]; ok {
		// Best-effort cancel; if the old timer already fired, its wakeup
		// carries the old deadline and fails the armed check.
		w.t.Stop()
	}
	n.timers[id] = wallTimer{at: at, t: time.AfterFunc(time.Duration(at-n.svc.Now()), func() {
		n.mb.post(mbMsg{wake: true, id: id, at: at})
	})}
}

// ClearTimer implements vsa.Host.
func (n *Node) ClearTimer(u geo.RegionID, id vsa.TimerID) {
	if w, ok := n.timers[id]; ok {
		w.t.Stop()
		delete(n.timers, id)
	}
}

// Emit implements vsa.Host: effects go to the app for interpretation.
func (n *Node) Emit(u geo.RegionID, effect any) {
	n.svc.app.HandleEffect(n, effect)
}

// stopWallTimers cancels outstanding wall timers on node exit. Timers that
// already fired post to the dead node's closed mailbox and are refused.
func (n *Node) stopWallTimers() {
	for id, w := range n.timers {
		w.t.Stop()
		delete(n.timers, id)
	}
}
