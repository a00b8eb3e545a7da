// Package nethost is the third substrate a vsa.Automaton can run on: a
// real networked host. Where the oracle host executes region machines
// atomically inside a discrete-event kernel and the emulation host
// replicates them over simulated mobile nodes, nethost runs one goroutine
// per region against the wall clock, moving frames over a real Transport
// (an in-process channel transport, or TCP between vinestalkd processes).
//
// The port contracts carry over unchanged:
//
//   - Virtual time is wall time since Service.Start, measured on the
//     monotonic clock. sim.Time is an alias of time.Duration, so deadlines
//     and delivery schedules map 1:1 with no conversion — the exact
//     sim.Time a timer was armed for is the exact value handed back to
//     TimerFire, preserving the advisory-wakeup equality check.
//   - Timer wakeups are advisory. Real time.Timers, unlike the sim kernel,
//     can fire late and race a re-arm; the node validates every wakeup
//     against its recorded deadline and drops stale ones before they reach
//     the automaton (which re-validates against its own state anyway).
//   - Frames carry an absolute virtual due time. The receiving service
//     holds a frame in the destination node's "VSA memory" until the due
//     time and the frame dies with the node (C-gcast §II-C.3 hold
//     semantics) — so the paper's delivery schedule, which the protocol's
//     condition (1) timers rely on, survives near-instant transports.
//
// Every frame send resolves to exactly one delivery or one named drop in
// the service ledger, so the drop-cause conservation invariant
// (sent == delivered + drops) is exact on the networked path too.
package nethost

import (
	"container/heap"
	"errors"
	"fmt"
	"sync"
	"time"

	"vinestalk/internal/geo"
	"vinestalk/internal/metrics"
	"vinestalk/internal/sim"
	"vinestalk/internal/vsa"
)

// ErrRegionDown marks an Inject into a crashed region — a scenario, not a
// caller bug; test with errors.Is when the input may legitimately target a
// region that a fault plan has taken down.
var ErrRegionDown = errors.New("region is down")

// App is the algorithm-side plug: it builds each region's automaton and
// interprets its effects and inbound frames. All App callbacks for one
// region run on that region's node goroutine; state reached only through
// a Node (Node.State, the automaton) needs no locking, shared App state
// does.
type App interface {
	// NewAutomaton builds a fresh automaton instance for region u, wired to
	// the given host. Each node owns an independent instance (initial
	// state, §II-C.2); only region u's slice of it will ever be driven.
	NewAutomaton(u geo.RegionID, host vsa.Host) vsa.Automaton

	// OnStart runs as the node's first action, on the node goroutine —
	// both at boot and after a restart (where it typically re-detects
	// co-located objects, like a GPS update to a restarted client).
	OnStart(n *Node)

	// HandleEffect interprets one effect the region's automaton emitted —
	// typically by encoding it and calling n.Send.
	HandleEffect(n *Node, effect any)

	// DeliverFrame hands the node one frame that reached its due time —
	// typically decoded and fed to the automaton's Deliver.
	DeliverFrame(n *Node, kind string, payload []byte)
}

// Config sizes a Service.
type Config struct {
	// NumRegions is the number of regions to host (ids 0..NumRegions-1).
	NumRegions int
	// Transport moves frames between regions; nil uses an in-process
	// channel transport.
	Transport Transport
}

// Service hosts one node per region over a transport and the wall clock.
type Service struct {
	app App
	tr  Transport

	start time.Time // anchor: virtual time = wall time since start

	mu      sync.Mutex
	slots   []slot
	ledger  *metrics.Ledger
	loss    func() bool // chaos in-window frame loss, called under mu
	chaos   []chaosEvent
	started bool
	stopped bool
	wg      sync.WaitGroup

	// held is every frame in hold (§II-C.3) awaiting its due time, earliest
	// first. holdLoop, the service's one hold goroutine, hands frames to their
	// nodes as they come due — a burst of frames due together is a queue, not
	// a goroutine each — and Stop resolves the rest to ledger drops. wake
	// tells holdLoop that the earliest due time moved up or the service
	// stopped; one pending signal is enough.
	held    holdQueue
	heldSeq uint64
	wake    chan struct{}
}

// heldFrame is one frame in hold: what Receive parsed, the incarnation of
// the destination it arrived under, and its arrival number.
type heldFrame struct {
	due     sim.Time
	seq     uint64
	to      geo.RegionID
	inc     uint64
	kind    string
	payload []byte
}

// holdQueue is a min-heap of held frames by (due, arrival): frames due at
// the same instant leave in the order they arrived.
type holdQueue []*heldFrame

func (q holdQueue) Len() int { return len(q) }
func (q holdQueue) Less(i, j int) bool {
	return q[i].due < q[j].due || q[i].due == q[j].due && q[i].seq < q[j].seq
}
func (q holdQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *holdQueue) Push(x any)   { *q = append(*q, x.(*heldFrame)) }
func (q *holdQueue) Pop() any {
	last := len(*q) - 1
	f := (*q)[last]
	(*q)[last] = nil
	*q = (*q)[:last]
	return f
}

// slot tracks one region's current node. inc counts lifecycle transitions;
// a held frame recorded under an older incarnation dies as DropVSAReset.
type slot struct {
	node *Node
	inc  uint64
}

type chaosEvent struct {
	at   sim.Time
	kill bool
	u    geo.RegionID
}

// New assembles a stopped service; call Start to boot the region nodes.
func New(app App, cfg Config) (*Service, error) {
	if cfg.NumRegions <= 0 {
		return nil, fmt.Errorf("nethost: need a positive region count, got %d", cfg.NumRegions)
	}
	s := &Service{
		app:    app,
		tr:     cfg.Transport,
		slots:  make([]slot, cfg.NumRegions),
		ledger: metrics.NewLedger(),
		wake:   make(chan struct{}, 1),
	}
	if s.tr == nil {
		s.tr = NewChanTransport()
	}
	return s, nil
}

// NumRegions returns the hosted region count.
func (s *Service) NumRegions() int { return len(s.slots) }

// Now returns the current virtual time: wall time since Start (0 before).
func (s *Service) Now() sim.Time {
	if s.start.IsZero() {
		return 0
	}
	return sim.Time(time.Since(s.start))
}

// Start anchors the clock, starts the transport and the hold goroutine, and
// boots every region node (plus any installed chaos schedule).
func (s *Service) Start() error {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return fmt.Errorf("nethost: already started")
	}
	s.started = true
	s.mu.Unlock()
	if err := s.tr.Start(s.Receive); err != nil {
		return err
	}
	s.start = time.Now()
	s.wg.Add(1)
	go s.holdLoop()
	for u := range s.slots {
		s.RestartRegion(geo.RegionID(u))
	}
	s.mu.Lock()
	events := s.chaos
	s.mu.Unlock()
	for _, ev := range events {
		ev := ev
		time.AfterFunc(time.Duration(ev.at), func() {
			if ev.kill {
				s.KillRegion(ev.u)
			} else {
				s.RestartRegion(ev.u)
			}
		})
	}
	return nil
}

// Stop kills every node and waits for their goroutines and the hold
// goroutine to exit. Every frame still held at stop time is resolved —
// recorded as a DropDeadVSA against its kind — before Stop returns, so the
// conservation invariant (sent == delivered + drops) holds on the ledger the
// moment Stop is done.
func (s *Service) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	// Frames holdLoop has already taken out are its to resolve, and wg.Wait
	// below waits for it; everything still queued dies here.
	for _, f := range s.held {
		s.ledger.RecordDrop("net/"+f.kind, metrics.DropDeadVSA)
	}
	s.held = nil
	s.mu.Unlock()
	signal(s.wake)
	for u := range s.slots {
		s.KillRegion(geo.RegionID(u))
	}
	s.wg.Wait()
	_ = s.tr.Close()
}

// KillRegion crash-stops region u's node: the goroutine exits, its
// automaton state, armed timers and queued inputs are gone, frames held for
// it die, and every post to it from now on is refused. No-op if the region
// is already dead.
func (s *Service) KillRegion(u geo.RegionID) {
	if int(u) < 0 || int(u) >= len(s.slots) {
		return
	}
	s.mu.Lock()
	n := s.slots[u].node
	if n == nil {
		s.mu.Unlock()
		return
	}
	s.slots[u].node = nil
	s.slots[u].inc++
	s.mu.Unlock()
	n.mb.close()
	close(n.dead)
}

// RestartRegion boots a fresh node for region u with a fresh automaton in
// its initial state (§II-C.2 restart). No-op if the region is alive.
func (s *Service) RestartRegion(u geo.RegionID) {
	if int(u) < 0 || int(u) >= len(s.slots) {
		return
	}
	s.mu.Lock()
	if s.stopped || s.slots[u].node != nil {
		s.mu.Unlock()
		return
	}
	n := newNode(s, u)
	s.slots[u].node = n
	s.slots[u].inc++
	s.wg.Add(1)
	s.mu.Unlock()
	go n.run()
}

// RegionAlive reports whether region u's node is running.
func (s *Service) RegionAlive(u geo.RegionID) bool {
	if int(u) < 0 || int(u) >= len(s.slots) {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.slots[u].node != nil
}

// Inject runs fn on region u's node goroutine — the entry point for
// external inputs (GPS updates, finds). It errors if the region is dead.
func (s *Service) Inject(u geo.RegionID, fn func(*Node)) error {
	if int(u) < 0 || int(u) >= len(s.slots) {
		return fmt.Errorf("nethost: region %v out of range", u)
	}
	s.mu.Lock()
	n := s.slots[u].node
	s.mu.Unlock()
	if n == nil {
		return fmt.Errorf("nethost: region %v: %w", u, ErrRegionDown)
	}
	if !n.mb.post(mbMsg{fn: fn}) {
		return fmt.Errorf("nethost: region %v died during inject: %w", u, ErrRegionDown)
	}
	return nil
}

// ScheduleKill arms a region crash at absolute virtual time at. Call
// before Start; the event fires on a wall timer once the clock is
// anchored. Fault plans (internal/chaos) compile onto these primitives.
func (s *Service) ScheduleKill(at sim.Time, u geo.RegionID) error {
	return s.scheduleEvent(chaosEvent{at: at, kill: true, u: u})
}

// ScheduleRestart arms a region restart at absolute virtual time at.
func (s *Service) ScheduleRestart(at sim.Time, u geo.RegionID) error {
	return s.scheduleEvent(chaosEvent{at: at, kill: false, u: u})
}

func (s *Service) scheduleEvent(ev chaosEvent) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return fmt.Errorf("nethost: fault schedule must precede Start")
	}
	s.chaos = append(s.chaos, ev)
	return nil
}

// SetLoss installs the frame-loss predicate consulted once per send. The
// service serializes calls (the predicate may draw from a seeded stream).
// Call before Start.
func (s *Service) SetLoss(loss func() bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return fmt.Errorf("nethost: loss predicate must precede Start")
	}
	s.loss = loss
	return nil
}

// send charges, possibly chaos-drops, encodes, and transmits one frame.
func (s *Service) send(to geo.RegionID, due sim.Time, kind string, hops int, payload []byte) {
	netKind := "net/" + kind
	s.mu.Lock()
	s.ledger.RecordMessage(netKind, hops)
	if s.loss != nil && s.loss() {
		s.ledger.RecordDrop(netKind, metrics.DropLoss)
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	if err := s.tr.Send(to, encodeFrame(to, due, kind, payload)); err != nil {
		s.mu.Lock()
		s.ledger.RecordDrop(netKind, metrics.DropNoRoute)
		s.mu.Unlock()
	}
}

// Receive is the transport sink: parse the frame, then hold it in the
// destination node's memory until its due time. A frame addressed to a
// dead region dies at arrival; one whose holder restarts before the due
// time dies as DropVSAReset — exactly the C-gcast hold semantics.
func (s *Service) Receive(frame []byte) {
	to, due, kind, payload, err := parseFrame(frame)
	if err != nil || int(to) >= len(s.slots) {
		s.mu.Lock()
		s.ledger.RecordDrop("net/malformed", metrics.DropNoRoute)
		s.mu.Unlock()
		return
	}
	netKind := "net/" + kind
	s.mu.Lock()
	if s.stopped || s.slots[to].node == nil {
		s.ledger.RecordDrop(netKind, metrics.DropDeadVSA)
		s.mu.Unlock()
		return
	}
	heap.Push(&s.held, &heldFrame{due: due, seq: s.heldSeq, to: to, inc: s.slots[to].inc, kind: kind, payload: payload})
	s.heldSeq++
	earliest := s.held[0].due == due
	s.mu.Unlock()
	if earliest {
		signal(s.wake)
	}
}

// holdLoop hands each held frame to its destination node once its due time
// has come, in (due, arrival) order, and sleeps until the next due time in
// between. It exits once the service has stopped.
func (s *Service) holdLoop() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		wait, stopped := time.Hour, s.stopped
		if len(s.held) > 0 {
			wait = time.Duration(s.held[0].due - s.Now())
		}
		if wait <= 0 {
			f := heap.Pop(&s.held).(*heldFrame)
			s.mu.Unlock()
			s.deliverHeld(f)
			continue
		}
		s.mu.Unlock()
		if stopped {
			return
		}
		t := time.NewTimer(wait)
		select {
		case <-s.wake:
		case <-t.C:
		}
		t.Stop()
	}
}

func (s *Service) deliverHeld(f *heldFrame) {
	netKind := "net/" + f.kind
	s.mu.Lock()
	n := s.slots[f.to].node
	switch {
	case n == nil:
		s.ledger.RecordDrop(netKind, metrics.DropDeadVSA)
		s.mu.Unlock()
		return
	case s.slots[f.to].inc != f.inc:
		s.ledger.RecordDrop(netKind, metrics.DropVSAReset)
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	if n.mb.post(mbMsg{kind: f.kind, payload: f.payload}) {
		s.mu.Lock()
		s.ledger.RecordDelivery(netKind)
		s.mu.Unlock()
	} else {
		s.mu.Lock()
		s.ledger.RecordDrop(netKind, metrics.DropDeadVSA)
		s.mu.Unlock()
	}
}

// RecordLatency adds a latency sample to the service ledger (serialized).
func (s *Service) RecordLatency(name string, d time.Duration) {
	s.mu.Lock()
	s.ledger.RecordLatency(name, d)
	s.mu.Unlock()
}

// LedgerSnapshot returns a point-in-time copy of the accounting.
func (s *Service) LedgerSnapshot() metrics.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ledger.Snapshot()
}

// LedgerExport returns the full ledger export (counters and histograms).
func (s *Service) LedgerExport() *metrics.Export {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ledger.Export()
}
