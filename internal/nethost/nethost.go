// Package nethost is the third substrate a vsa.Automaton can run on: a
// real networked host. Where the oracle host executes region machines
// atomically inside a discrete-event kernel and the emulation host
// replicates them over simulated mobile nodes, nethost runs one goroutine
// per region against the wall clock, moving frames over a real Transport
// (an in-process channel transport, or TCP between vinestalkd processes).
//
// The port contracts carry over unchanged:
//
//   - Virtual time is wall time since Service.Start, on the monotonic
//     clock, but a node acts at its input's instant: Node.Now is the due
//     time of the frame or wakeup being processed, or an injected input's
//     Inject time, never a fresh reading. sim.Time is an alias of
//     time.Duration, so deadlines and delivery schedules map 1:1.
//   - One queue keeps time: held frames, timer wakeups, RunAt functions
//     and scheduled faults leave it in (due, queue) order, released by one
//     goroutine. Wakeups are advisory: a re-armed or cleared timer's old
//     wakeup stays queued and the node drops it against its recorded
//     deadline (the automaton re-validates against its own state anyway).
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
// interprets its inbound frames. All App callbacks for one region run on
// that region's node goroutine; state reached only through a Node
// (Node.State, the automaton) needs no locking, shared App state does.
type App interface {
	// NewAutomaton builds a fresh automaton instance for region u, wired to
	// the given host, which is u's *Node: the automaton sends through its
	// Send or SendFrame and arms timers through its SetTimer (Node.Emit
	// drops what it is given). Each node owns an independent instance
	// (initial state, §II-C.2); only region u's slice of it will ever be
	// driven.
	NewAutomaton(u geo.RegionID, host vsa.Host) vsa.Automaton

	// OnStart runs as the node's first action, on the node goroutine —
	// both at boot and after a restart (where it typically re-detects
	// co-located objects, like a GPS update to a restarted client).
	OnStart(n *Node)

	// DeliverFrame hands the node one frame that reached its due time —
	// typically decoded and fed to the automaton's Deliver. payload is
	// valid for the call: an app that keeps any of it copies it.
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
	started bool
	stopped bool
	wg      sync.WaitGroup

	// held is everything awaiting its instant, earliest first: frames in
	// hold (§II-C.3), timer wakeups, RunAt functions and scheduled faults.
	// holdLoop, the service's one hold goroutine, releases each as it comes
	// due — a burst due together is a queue, not a goroutine each — and Stop
	// resolves the frames left to ledger drops. wake tells holdLoop that the
	// earliest due time moved up or the service stopped; one pending signal
	// is enough.
	held    holdQueue
	heldSeq uint64
	wake    chan struct{}

	// kinds holds every wire kind the service has sent or received, with
	// its ledger row "net/<kind>"; kindIDs maps a kind to its index there,
	// which is what a held frame carries. malformed is the row of frames
	// that fail to parse. Guarded by mu.
	kinds     []frameKind
	kindIDs   map[string]uint32
	malformed metrics.Kind
}

// frameKind is one interned wire kind and its ledger row.
type frameKind struct {
	name string
	row  metrics.Kind
}

// heldEntry is one entry of the service queue, numbered seq: a closure to
// call at due (a RunAt function, a fault); or else, for the node of region
// to in incarnation inc, a frame in hold with its interned kind or a timer
// wakeup with its id. A frame's payload is never nil (parseFrame's
// guarantee), which is what tells a frame from a wakeup. It is 64 bytes and
// the queue holds it by value.
type heldEntry struct {
	due     sim.Time
	seq     uint64
	fire    func()
	payload []byte
	arg     uint64 // a frame's index in Service.kinds, a wakeup's vsa.TimerID
	to      int32
	inc     uint32
}

// frame reports whether the entry holds a frame.
func (e *heldEntry) frame() bool { return e.fire == nil && e.payload != nil }

// before orders entries by (due, seq).
func (e *heldEntry) before(f *heldEntry) bool {
	return e.due < f.due || e.due == f.due && e.seq < f.seq
}

// holdQueue is a 4-ary min-heap of entries by (due, seq), held by value:
// entries due at the same instant leave in the order they were queued. A
// push or pop moves entries within one slice and allocates nothing once
// the slice has grown to the queue's depth. A pop that leaves the queue
// below a quarter of a capacity over holdQueueMinCap moves it to half that
// capacity, so the memory the queue keeps follows its depth, not the
// deepest burst it has held.
type holdQueue []heldEntry

// holdQueueMinCap is the capacity a queue keeps however shallow it gets
// (64 KB of entries).
const holdQueueMinCap = 1024

// push adds e.
func (q *holdQueue) push(e heldEntry) {
	h := append(*q, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	*q = h
}

// pop removes and returns the earliest entry; the queue must not be empty.
func (q *holdQueue) pop() heldEntry {
	h := *q
	top := h[0]
	last := len(h) - 1
	e := h[last]
	h[last] = heldEntry{} // drop the slot's closure and payload
	h = h[:last]
	if last > 0 {
		i := 0
		for {
			c := 4*i + 1
			if c >= last {
				break
			}
			m := c
			for k := c + 1; k < c+4 && k < last; k++ {
				if h[k].before(&h[m]) {
					m = k
				}
			}
			if !h[m].before(&e) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = e
	}
	if c := cap(h); c > holdQueueMinCap && len(h) < c/4 {
		h = append(make(holdQueue, 0, c/2), h...)
	}
	*q = h
	return top
}

// slot tracks one region's current node. inc counts lifecycle transitions
// (modulo 2³²); a held frame recorded under an older incarnation dies as
// DropVSAReset.
type slot struct {
	node *Node
	inc  uint32
}

// New assembles a stopped service; call Start to boot the region nodes.
func New(app App, cfg Config) (*Service, error) {
	if cfg.NumRegions <= 0 {
		return nil, fmt.Errorf("nethost: need a positive region count, got %d", cfg.NumRegions)
	}
	s := &Service{
		app:     app,
		tr:      cfg.Transport,
		slots:   make([]slot, cfg.NumRegions),
		ledger:  metrics.NewLedger(),
		wake:    make(chan struct{}, 1),
		kindIDs: make(map[string]uint32),
	}
	s.malformed = s.ledger.Kind("net/malformed")
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

// Start anchors the clock, starts the transport, boots every region node,
// and starts the hold goroutine (which runs any installed fault schedule).
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
	for u := range s.slots {
		s.RestartRegion(geo.RegionID(u))
	}
	s.wg.Add(1)
	go s.holdLoop()
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
	// below waits for it; every frame still queued dies here.
	for i := range s.held {
		if e := &s.held[i]; e.frame() {
			s.kinds[e.arg].row.Drop(metrics.DropDeadVSA)
		}
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
func (s *Service) RestartRegion(u geo.RegionID) { s.restart(u, s.Now()) }

// restart is RestartRegion at instant at, the node's Now during OnStart.
func (s *Service) restart(u geo.RegionID, at sim.Time) {
	if int(u) < 0 || int(u) >= len(s.slots) {
		return
	}
	s.mu.Lock()
	if s.stopped || s.slots[u].node != nil {
		s.mu.Unlock()
		return
	}
	n := newNode(s, u, at)
	s.slots[u].node = n
	s.slots[u].inc++
	n.inc = s.slots[u].inc
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

// Inject runs fn on region u's node goroutine, at the instant of the call —
// the entry point for external inputs (GPS updates, finds). It errors if the
// region is dead.
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
	if !n.mb.post(mbMsg{fn: fn, at: s.Now()}) {
		return fmt.Errorf("nethost: region %v died during inject: %w", u, ErrRegionDown)
	}
	return nil
}

// ScheduleKill arms a region crash at absolute virtual time at. Call
// before Start; the event waits in the service queue. Fault plans
// (internal/chaos) compile onto these primitives.
func (s *Service) ScheduleKill(at sim.Time, u geo.RegionID) error {
	return s.scheduleFault(at, func() { s.KillRegion(u) })
}

// ScheduleRestart arms a region restart at absolute virtual time at.
func (s *Service) ScheduleRestart(at sim.Time, u geo.RegionID) error {
	return s.scheduleFault(at, func() { s.restart(u, at) })
}

func (s *Service) scheduleFault(at sim.Time, fire func()) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return fmt.Errorf("nethost: fault schedule must precede Start")
	}
	s.pushLocked(heldEntry{due: at, fire: fire})
	return nil
}

// queue adds e for holdLoop to release at e.due; after Stop it is dropped.
func (s *Service) queue(e heldEntry) {
	s.mu.Lock()
	earliest := !s.stopped && s.pushLocked(e)
	s.mu.Unlock()
	if earliest {
		signal(s.wake)
	}
}

// pushLocked queues e, numbering it, and reports whether it is now the
// earliest entry. Called with mu held.
func (s *Service) pushLocked(e heldEntry) bool {
	e.seq = s.heldSeq
	s.heldSeq++
	s.held.push(e)
	return s.held[0].seq == e.seq
}

// kindOf is kindLocked for a kind read off a frame: looking the bytes up
// allocates nothing. Called with mu held.
func (s *Service) kindOf(kind []byte) uint32 {
	if i, ok := s.kindIDs[string(kind)]; ok {
		return i
	}
	return s.kindLocked(string(kind))
}

// kindLocked returns the index of wire kind name in s.kinds, interning it
// and its ledger row on first sight. Called with mu held.
func (s *Service) kindLocked(name string) uint32 {
	i, ok := s.kindIDs[name]
	if !ok {
		i = uint32(len(s.kinds))
		s.kinds = append(s.kinds, frameKind{name: name, row: s.ledger.Kind("net/" + name)})
		s.kindIDs[name] = i
	}
	return i
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

// send charges, possibly chaos-drops, and transmits one frame. A frame
// whose header does not parse is charged to, and dropped on, the malformed
// row.
func (s *Service) send(frame []byte, hops int) {
	to, _, kind, _, err := parseFrame(frame)
	s.mu.Lock()
	row := s.malformed
	if err == nil {
		row = s.kinds[s.kindOf(kind)].row
	}
	row.Message(hops)
	if err != nil {
		row.Drop(metrics.DropNoRoute)
		s.mu.Unlock()
		return
	}
	if s.loss != nil && s.loss() {
		row.Drop(metrics.DropLoss)
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	if err := s.tr.Send(to, frame); err != nil {
		s.mu.Lock()
		row.Drop(metrics.DropNoRoute)
		s.mu.Unlock()
	}
}

// Receive is the transport sink: parse the frame, then hold it in the
// destination node's memory until its due time. A frame addressed to a
// dead region dies at arrival; one whose holder restarts before the due
// time dies as DropVSAReset — exactly the C-gcast hold semantics.
func (s *Service) Receive(frame []byte) {
	to, due, kind, payload, err := parseFrame(frame)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil || int(to) >= len(s.slots) {
		s.malformed.Drop(metrics.DropNoRoute)
		return
	}
	k := s.kindOf(kind)
	if s.stopped || s.slots[to].node == nil {
		s.kinds[k].row.Drop(metrics.DropDeadVSA)
		return
	}
	if s.pushLocked(heldEntry{due: due, to: int32(to), inc: s.slots[to].inc, arg: uint64(k), payload: payload}) {
		signal(s.wake)
	}
}

// maxBatch bounds the frames and wakeups holdLoop takes out of the queue in
// one critical section, and so the batch buffer it keeps: a burst larger
// than this is released in several batches.
const maxBatch = 256

// release is one due frame or wakeup holdLoop has taken out of the queue,
// with the node it goes to, resolved when it was taken.
type release struct {
	n       *Node
	kind    string
	row     metrics.Kind
	payload []byte
	due     sim.Time
	wake    bool
	id      vsa.TimerID
	posted  bool
}

// holdLoop releases each queued entry once its due time has come, in (due,
// seq) order — a frame or a wakeup to its node, a closure by calling it —
// and sleeps until the next due time in between. What is due is taken in
// one critical section, up to and including the first closure or up to
// maxBatch entries: the frames and wakeups before it are resolved against
// their node's slot and incarnation there, posted, and the frames' outcomes
// recorded in one more; then the closure runs. So a kill or restart in the
// middle of a burst still finds every frame behind it, and a wakeup armed
// by a node that has died since is dropped. It exits once the service has
// stopped.
func (s *Service) holdLoop() {
	defer s.wg.Done()
	batch := make([]release, 0, maxBatch)
	t := time.NewTimer(time.Hour)
	defer t.Stop()
	for {
		var fire func()
		s.mu.Lock()
		now := s.Now()
		for len(s.held) > 0 && s.held[0].due <= now && len(batch) < maxBatch {
			e := s.held.pop()
			if e.fire != nil {
				fire = e.fire
				break
			}
			sl := &s.slots[e.to]
			if !e.frame() {
				if sl.node != nil && sl.inc == e.inc {
					batch = append(batch, release{n: sl.node, due: e.due, wake: true, id: vsa.TimerID(e.arg)})
				}
				continue
			}
			k := &s.kinds[e.arg]
			switch {
			case sl.node == nil:
				k.row.Drop(metrics.DropDeadVSA)
			case sl.inc != e.inc:
				k.row.Drop(metrics.DropVSAReset)
			default:
				batch = append(batch, release{n: sl.node, kind: k.name, row: k.row, payload: e.payload, due: e.due})
			}
		}
		var next sim.Time
		queued, stopped := len(s.held) > 0, s.stopped
		if queued {
			next = s.held[0].due
		}
		s.mu.Unlock()
		if len(batch) > 0 {
			s.deliver(batch)
			clear(batch)
			batch = batch[:0]
		}
		if fire != nil {
			fire()
			continue
		}
		if stopped {
			return
		}
		wait := time.Hour
		if queued {
			if wait = time.Duration(next - s.Now()); wait <= 0 {
				continue
			}
		}
		if !t.Stop() {
			select {
			case <-t.C:
			default:
			}
		}
		t.Reset(wait)
		select {
		case <-s.wake:
		case <-t.C:
		}
	}
}

// deliver posts each frame and wakeup of a batch to its node's mailbox, in
// order, then records every frame's outcome: a delivery, or a DropDeadVSA
// for a node that died since the batch was taken.
func (s *Service) deliver(batch []release) {
	for i := range batch {
		r := &batch[i]
		if r.wake {
			r.n.mb.post(mbMsg{wake: true, id: r.id, at: r.due})
		} else {
			r.posted = r.n.mb.post(mbMsg{kind: r.kind, payload: r.payload, at: r.due})
		}
	}
	s.mu.Lock()
	for i := range batch {
		switch r := &batch[i]; {
		case r.wake:
		case r.posted:
			r.row.Delivery()
		default:
			r.row.Drop(metrics.DropDeadVSA)
		}
	}
	s.mu.Unlock()
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
