// Package nethost is the third substrate a vsa.Automaton can run on: a
// real networked host. Where the oracle host executes region machines
// atomically inside a discrete-event kernel and the emulation host
// replicates them over simulated mobile nodes, nethost runs every region's
// node against the wall clock, moving frames over a real Transport (an
// in-process channel transport, or TCP between vinestalkd processes).
//
// The port contracts carry over unchanged:
//
//   - Virtual time is wall time since Service.Start, on the monotonic
//     clock, but a node acts at its input's instant: Node.Now is the due
//     time of the frame or wakeup being processed, or an injected input's
//     Inject time, never a fresh reading. sim.Time is an alias of
//     time.Duration, so deadlines and delivery schedules map 1:1.
//   - One queue keeps time and runs the regions: held frames, timer
//     wakeups, injected and RunAt functions, restarts and scheduled faults
//     leave it in (due, queue) order, and one goroutine, the executor,
//     runs each on its node as it comes due. A region takes its inputs one
//     at a time, in atomic steps (§II-C), and so does the whole process:
//     concurrency between regions is across processes (the TCP
//     transport), not inside one. Wakeups are advisory: a re-armed or
//     cleared timer's old wakeup stays queued and the node drops it
//     against its recorded deadline (the automaton re-validates against
//     its own state anyway).
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
// interprets its inbound frames. OnStart, DeliverFrame and every injected
// or RunAt function run on the service's executor goroutine, one input at
// a time; state reached only through a Node (Node.State, the automaton)
// needs no locking, and App state shared with other goroutines (the
// callers of Inject) does.
type App interface {
	// NewAutomaton builds a fresh automaton instance for region u, wired to
	// the given host, which is u's *Node: the automaton reads its inputs'
	// instants from Now, and the app hands it a typed port whose effects
	// become calls of the node's Send or SendFrame and SetTimer or
	// ClearTimer. Each node owns an independent instance (initial state,
	// §II-C.2); only region u's slice of it will ever be driven. host is a
	// vsa.Host, not a *Node, because the benchmark's echo app
	// (benchmark/micro.go) implements App with this signature, and the
	// benchmark's code is held fixed so that its runs compare across
	// commits.
	NewAutomaton(u geo.RegionID, host vsa.Host) vsa.Automaton

	// OnStart runs as the node's first input, on the executor — both at
	// boot and after a restart (where it typically re-detects co-located
	// objects, like a GPS update to a restarted client).
	OnStart(n *Node)

	// DeliverFrame hands the node one frame that reached its due time —
	// typically decoded and fed to the automaton's Deliver. payload is
	// valid for the call: an app that keeps any of it copies it (the
	// Transport doc says who owns the frame).
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
	wg      sync.WaitGroup // the executor

	// held is everything awaiting its instant, earliest first: frames in
	// hold (§II-C.3), timer wakeups, functions to run on a node (injected,
	// RunAt, a restart's) and scheduled faults. holdLoop, the service's one
	// executor goroutine, runs each as it comes due — a burst due together
	// is a queue, not a goroutine each — and Stop resolves the frames left
	// to ledger drops. wake tells holdLoop that the earliest due time moved
	// up or the service stopped; one pending signal is enough.
	held    holdQueue
	heldSeq uint64
	wake    chan struct{}

	// injected counts the Injected functions in held. An Inject that finds
	// maxInjected there waits on space (whose lock is mu) until the
	// executor takes one, its region dies or the service stops; waiting
	// counts the Injects waiting.
	injected int
	waiting  int
	space    sync.Cond

	// kinds holds every wire kind the service has sent or had registered,
	// with its ledger row "net/<kind>"; kindIDs maps a kind to its index
	// there, which is what a held frame carries. malformed is the row of
	// received frames that fail to parse or carry a kind not in the table.
	// Guarded by mu.
	kinds     []frameKind
	kindIDs   map[string]uint32
	malformed metrics.Kind
}

// frameKind is one interned wire kind and its ledger row.
type frameKind struct {
	name string
	row  metrics.Kind
}

// heldEntry is one entry of the service queue, numbered seq. For the node
// of region to in incarnation inc it is an input: a function to run on the
// node (injected, RunAt, a restart's), a frame in hold with its interned
// kind, or a timer wakeup with its id. With to < 0 it is a scheduled
// fault, a function called with no node. A frame's payload is never nil
// (parseFrame's guarantee), which is what tells a frame from a wakeup. It
// is 64 bytes and the queue holds it by value.
type heldEntry struct {
	due     sim.Time
	seq     uint64
	fn      func(*Node)
	payload []byte
	arg     uint64 // a frame's index in Service.kinds, a wakeup's vsa.TimerID, injectedArg for an Injected function
	to      int32
	inc     uint32
}

// injectedArg marks the function entries Inject queues: they count towards
// maxInjected.
const injectedArg = 1

// maxInjected bounds the Injected functions waiting in the queue: an Inject
// past it blocks until the executor takes one, so a caller that floods
// inputs is slowed, not buffered without limit. Wakeups and RunAt functions
// are queued by the executor itself, which must never wait on its own
// queue, and frames are held as they arrive; neither counts.
const maxInjected = 8192

// frame reports whether the entry holds a frame.
func (e *heldEntry) frame() bool { return e.fn == nil && e.payload != nil }

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
	h[last] = heldEntry{} // drop the slot's function and payload
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
// (modulo 2³²); an input queued under an older incarnation dies with it, a
// held frame as DropVSAReset.
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
	s.space.L = &s.mu
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
// and starts the executor (which runs any installed fault schedule).
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

// Stop kills every node and waits for the executor to exit. Every frame
// still held at stop time is resolved — recorded as a DropDeadVSA against
// its kind — before Stop returns, so the conservation invariant (sent ==
// delivered + drops) holds on the ledger the moment Stop is done. Every
// Inject waiting for room is refused.
func (s *Service) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	// The frames the executor has taken out are resolved already; every
	// frame still queued dies here.
	for i := range s.held {
		if e := &s.held[i]; e.frame() {
			s.kinds[e.arg].row.Drop(metrics.DropDeadVSA)
		}
	}
	s.held = nil
	s.injected = 0
	s.space.Broadcast()
	s.mu.Unlock()
	signal(s.wake)
	for u := range s.slots {
		s.KillRegion(geo.RegionID(u))
	}
	s.wg.Wait()
	_ = s.tr.Close()
}

// KillRegion crash-stops region u's node: its automaton state and armed
// timers are gone, every input queued for it dies (a held frame as a
// DropDeadVSA), it takes no input after this returns but the one it may be
// in, and every Inject to it from now on is refused. No-op if the region
// is already dead.
func (s *Service) KillRegion(u geo.RegionID) {
	if int(u) < 0 || int(u) >= len(s.slots) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.slots[u].node
	if n == nil {
		return
	}
	s.slots[u].node = nil
	s.slots[u].inc++
	n.killed.Store(true)
	s.space.Broadcast() // an Inject waiting for room may be for u
}

// RestartRegion boots a fresh node for region u with a fresh automaton in
// its initial state (§II-C.2 restart). No-op if the region is alive.
func (s *Service) RestartRegion(u geo.RegionID) { s.restart(u, s.Now()) }

// restart is RestartRegion at instant at, the node's Now during OnStart:
// the slot takes the node at once, and the executor runs OnStart as the
// node's first input.
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
	earliest := s.pushLocked(heldEntry{due: at, fn: boot, to: int32(u), inc: n.inc})
	s.mu.Unlock()
	if earliest {
		signal(s.wake)
	}
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

// Inject queues fn to run on region u's node at the instant of the call,
// behind every input already due — the entry point for external inputs
// (GPS updates, finds). It errors if the region is dead; if the region
// dies before fn's turn, fn never runs. While maxInjected injected
// functions wait in the queue, Inject blocks until the executor takes one,
// so an input must not call it: an input schedules with Node.RunAt.
func (s *Service) Inject(u geo.RegionID, fn func(*Node)) error {
	if int(u) < 0 || int(u) >= len(s.slots) {
		return fmt.Errorf("nethost: region %v out of range", u)
	}
	s.mu.Lock()
	for s.injected >= maxInjected && s.slots[u].node != nil && !s.stopped {
		s.waiting++
		s.space.Wait()
		s.waiting--
	}
	sl := &s.slots[u]
	if sl.node == nil || s.stopped {
		s.mu.Unlock()
		return fmt.Errorf("nethost: region %v: %w", u, ErrRegionDown)
	}
	s.injected++
	earliest := s.pushLocked(heldEntry{due: s.Now(), fn: fn, to: int32(u), inc: sl.inc, arg: injectedArg})
	s.mu.Unlock()
	if earliest {
		signal(s.wake)
	}
	return nil
}

// ScheduleKill arms a region crash at absolute virtual time at. Call
// before Start; the event waits in the service queue. Fault plans
// (internal/chaos) compile onto these primitives.
func (s *Service) ScheduleKill(at sim.Time, u geo.RegionID) error {
	return s.scheduleFault(at, func(*Node) { s.KillRegion(u) })
}

// ScheduleRestart arms a region restart at absolute virtual time at.
func (s *Service) ScheduleRestart(at sim.Time, u geo.RegionID) error {
	return s.scheduleFault(at, func(*Node) { s.restart(u, at) })
}

func (s *Service) scheduleFault(at sim.Time, fire func(*Node)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return fmt.Errorf("nethost: fault schedule must precede Start")
	}
	s.pushLocked(heldEntry{due: at, fn: fire, to: -1})
	return nil
}

// queue adds e for the executor to run at e.due; after Stop it is dropped.
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

// signal leaves one pending wakeup on c unless one is already there.
func signal(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// RegisterKinds adds wire kinds to the table, each with its ledger row
// "net/<kind>". Receive accepts a frame only if its kind is in the table,
// and a kind gets there by being registered or by a send of this service;
// so an app whose regions may be hosted by other processes registers its
// alphabet before Start.
func (s *Service) RegisterKinds(kinds ...string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, k := range kinds {
		s.kindLocked(k)
	}
}

// kindOf is kindLocked for the kind of a frame the service sends: looking
// the bytes up allocates nothing. Called with mu held.
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
// time dies as DropVSAReset — exactly the C-gcast hold semantics. A frame
// that does not parse, or whose kind is not in the table, dies on the
// malformed row before anything of it is kept: a peer's bytes never grow
// the table.
func (s *Service) Receive(frame []byte) {
	to, due, kind, payload, err := parseFrame(frame)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil || int(to) >= len(s.slots) {
		s.malformed.Drop(metrics.DropNoRoute)
		return
	}
	k, ok := s.kindIDs[string(kind)]
	if !ok {
		s.malformed.Drop(metrics.DropUnknownKind)
		return
	}
	if s.stopped || s.slots[to].node == nil {
		s.kinds[k].row.Drop(metrics.DropDeadVSA)
		return
	}
	if s.pushLocked(heldEntry{due: due, to: int32(to), inc: s.slots[to].inc, arg: uint64(k), payload: payload}) {
		signal(s.wake)
	}
}

// maxBatch bounds the entries the executor takes out of the queue in one
// critical section, and so the batch buffer it keeps: a burst larger than
// this runs in several batches.
const maxBatch = 256

// release is one due input the executor has taken out of the queue, with
// the node it goes to, resolved when it was taken: a function to run, a
// frame of kind, or else a wakeup of timer id.
type release struct {
	n       *Node
	fn      func(*Node)
	kind    string
	payload []byte
	due     sim.Time
	id      vsa.TimerID
}

// holdLoop is the service's executor: it runs each queued entry once its
// due time has come, in (due, seq) order — an input on its node, a fault
// by calling it — and sleeps until the next due time in between. What is
// due is taken in one critical section, up to and including the first
// function (an input's or a fault's) or up to maxBatch entries. There each
// input is resolved against its node's slot and incarnation, each frame's
// outcome is recorded (a delivery, or a drop for a node that died or
// restarted since the frame was held), and an Injected function frees its
// place. Then the batch runs, in order. Frames and wakeups do not kill or
// restart regions, so a function that does, queued in the middle of a
// burst, still finds every input behind it; a wakeup armed by a node that
// has died since is dropped; and a node that another goroutine kills
// while the batch runs takes none of the inputs the batch still holds for
// it, as a node's memory dies with it. It exits once the service has
// stopped.
func (s *Service) holdLoop() {
	defer s.wg.Done()
	batch := make([]release, 0, maxBatch)
	t := time.NewTimer(time.Hour)
	defer t.Stop()
	for {
		var fault func(*Node)
		s.mu.Lock()
		now := s.Now()
		for len(s.held) > 0 && s.held[0].due <= now && len(batch) < maxBatch {
			e := s.held.pop()
			if e.to < 0 {
				fault = e.fn
				break
			}
			sl := &s.slots[e.to]
			live := sl.node != nil && sl.inc == e.inc
			if e.fn != nil {
				if e.arg == injectedArg {
					s.injected--
					if s.waiting > 0 {
						s.space.Signal()
					}
				}
				if live {
					batch = append(batch, release{n: sl.node, fn: e.fn, due: e.due})
				}
				break
			}
			if !e.frame() {
				if live {
					batch = append(batch, release{n: sl.node, due: e.due, id: vsa.TimerID(e.arg)})
				}
				continue
			}
			k := &s.kinds[e.arg]
			switch {
			case sl.node == nil:
				k.row.Drop(metrics.DropDeadVSA)
			case !live:
				k.row.Drop(metrics.DropVSAReset)
			default:
				k.row.Delivery()
				batch = append(batch, release{n: sl.node, kind: k.name, payload: e.payload, due: e.due})
			}
		}
		var next sim.Time
		queued, stopped := len(s.held) > 0, s.stopped
		if queued {
			next = s.held[0].due
		}
		s.mu.Unlock()
		for i := range batch {
			batch[i].n.dispatch(&batch[i])
		}
		clear(batch)
		batch = batch[:0]
		if fault != nil {
			fault(nil)
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
