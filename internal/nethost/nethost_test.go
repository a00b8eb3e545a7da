package nethost

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"vinestalk/internal/geo"
	"vinestalk/internal/metrics"
	"vinestalk/internal/sim"
	"vinestalk/internal/vsa"
)

// recApp is a minimal App whose automatons record every TimerFire and
// frame delivery, for exercising the host runtime in isolation.
type recApp struct {
	mu     sync.Mutex
	fires  []fireRec
	frames []frameRec
}

type fireRec struct {
	u  geo.RegionID
	id vsa.TimerID
	at sim.Time
}

type frameRec struct {
	u       geo.RegionID
	kind    string
	payload []byte
}

func (a *recApp) recordedFires() []fireRec {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]fireRec(nil), a.fires...)
}

func (a *recApp) recordedFrames() []frameRec {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]frameRec(nil), a.frames...)
}

type recAut struct {
	app *recApp
	u   geo.RegionID
}

func (r *recAut) Deliver(u geo.RegionID, level int, msg any)      {}
func (r *recAut) ResetRegion(u geo.RegionID)                      {}
func (r *recAut) EncodeRegion(u geo.RegionID) []byte              { return nil }
func (r *recAut) DecodeRegion(u geo.RegionID, state []byte) error { return nil }

func (r *recAut) TimerFire(u geo.RegionID, id vsa.TimerID, at sim.Time) {
	r.app.mu.Lock()
	r.app.fires = append(r.app.fires, fireRec{u: u, id: id, at: at})
	r.app.mu.Unlock()
}

func (a *recApp) NewAutomaton(u geo.RegionID, host vsa.Host) vsa.Automaton {
	return &recAut{app: a, u: u}
}

func (a *recApp) OnStart(n *Node) {}
func (a *recApp) DeliverFrame(n *Node, kind string, payload []byte) {
	a.mu.Lock()
	a.frames = append(a.frames, frameRec{u: n.Region(), kind: kind, payload: append([]byte(nil), payload...)})
	a.mu.Unlock()
}

func startService(t *testing.T, app App, numRegions int) *Service {
	t.Helper()
	s, err := New(app, Config{NumRegions: numRegions})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s
}

// TestStaleWakeupNeverFires is the advisory-timer audit under wall clocks:
// a wakeup released before its deadline was superseded by a re-arm must
// never reach the automaton. The executor is blocked across the first
// deadline so the stale wakeup falls due before the re-arm runs, the exact
// race a sim kernel can never produce.
func TestStaleWakeupNeverFires(t *testing.T) {
	app := &recApp{}
	s := startService(t, app, 1)
	const id = vsa.TimerID(7)

	var t2 sim.Time
	done := make(chan struct{})
	if err := s.Inject(0, func(n *Node) {
		t1 := n.Now() + 20*time.Millisecond
		n.SetTimer(0, id, t1)
		// Block the executor past t1: the t1 wakeup falls due in the queue
		// and is taken only after this function returns.
		time.Sleep(60 * time.Millisecond)
		t2 = n.Now() + 100*time.Millisecond
		n.SetTimer(0, id, t2)
		close(done)
	}); err != nil {
		t.Fatal(err)
	}
	<-done
	time.Sleep(150 * time.Millisecond)

	fires := app.recordedFires()
	if len(fires) != 1 {
		t.Fatalf("got %d timer fires %v, want exactly 1", len(fires), fires)
	}
	if fires[0].at != t2 || fires[0].id != id {
		t.Fatalf("fired (id=%d, at=%v), want (id=%d, at=%v) — a stale t1 wakeup leaked", fires[0].id, fires[0].at, id, t2)
	}
}

// TestClearTimerSuppressesWakeup: clearing an armed timer before its
// deadline must suppress the fire entirely.
func TestClearTimerSuppressesWakeup(t *testing.T) {
	app := &recApp{}
	s := startService(t, app, 1)
	if err := s.Inject(0, func(n *Node) {
		n.SetTimer(0, 1, n.Now()+20*time.Millisecond)
		n.ClearTimer(0, 1)
	}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(80 * time.Millisecond)
	if fires := app.recordedFires(); len(fires) != 0 {
		t.Fatalf("cleared timer fired: %v", fires)
	}
}

// TestTimerTableHoldsOnlyArmedTimers is the regression test for the timer
// leak: a dispatched wakeup used to leave its entry in the node's table for
// good. After a churn of arms, re-arms and clears has fired out, the table
// and the service queue are empty again, and the table counts exactly the
// timers still armed.
func TestTimerTableHoldsOnlyArmedTimers(t *testing.T) {
	app := &recApp{}
	s := startService(t, app, 1)
	tableSize := func() int {
		size := make(chan int)
		if err := s.Inject(0, func(n *Node) { size <- len(n.timers) }); err != nil {
			t.Fatal(err)
		}
		return <-size
	}
	const ids = 64
	if err := s.Inject(0, func(n *Node) {
		for id := vsa.TimerID(0); id < ids; id++ {
			n.SetTimer(0, id, n.Now()+time.Duration(1+id%8)*time.Millisecond)
		}
		for id := vsa.TimerID(0); id < ids; id += 4 {
			n.ClearTimer(0, id)
		}
		for id := vsa.TimerID(1); id < ids; id += 4 {
			n.SetTimer(0, id, n.Now()+20*time.Millisecond)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got := tableSize(); got > ids-ids/4 {
		t.Fatalf("table holds %d timers with at most %d armed", got, ids-ids/4)
	}
	time.Sleep(100 * time.Millisecond)
	if got := len(app.recordedFires()); got != ids-ids/4 {
		t.Fatalf("%d timers fired, want %d", got, ids-ids/4)
	}
	if got := tableSize(); got != 0 {
		t.Fatalf("table holds %d timers after every wakeup was dispatched", got)
	}
	if got := queueLen(s); got != 0 {
		t.Fatalf("service queue holds %d entries after every wakeup was dispatched", got)
	}
	if err := s.Inject(0, func(n *Node) {
		for id := vsa.TimerID(0); id < 3; id++ {
			n.SetTimer(0, id, n.Now()+time.Hour)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got := tableSize(); got != 3 {
		t.Fatalf("table holds %d timers with 3 armed", got)
	}
}

// queueLen reads how many entries wait in s's queue.
func queueLen(s *Service) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.held)
}

// orderApp logs every input its nodes dispatch — timer fires, frames, and
// the functions a test runs on them — with the node's Now at that input.
type orderApp struct {
	recApp
	logMu sync.Mutex
	log   []string
}

func (a *orderApp) record(what string, now sim.Time) {
	a.logMu.Lock()
	a.log = append(a.log, fmt.Sprintf("%s@%v", what, now))
	a.logMu.Unlock()
}

func (a *orderApp) recorded() []string {
	a.logMu.Lock()
	defer a.logMu.Unlock()
	return append([]string(nil), a.log...)
}

func (a *orderApp) NewAutomaton(u geo.RegionID, host vsa.Host) vsa.Automaton {
	return &orderAut{app: a, host: host}
}

func (a *orderApp) DeliverFrame(n *Node, kind string, payload []byte) {
	a.record("frame "+kind, n.Now())
}

type orderAut struct {
	recAut
	app  *orderApp
	host vsa.Host
}

func (r *orderAut) TimerFire(u geo.RegionID, id vsa.TimerID, at sim.Time) {
	r.app.record(fmt.Sprintf("timer %d", id), r.host.Now())
}

// TestQueueDispatchesInDueOrder: with the node goroutine blocked, a timer,
// a RunAt function and a frame due at one instant, and two inputs due
// later, reach the node in (due, queue) order, and inside each one Now is
// that input's instant. Inside the blocked injected function, Now stays at
// its Inject instant.
func TestQueueDispatchesInDueOrder(t *testing.T) {
	app := &orderApp{}
	s := startService(t, app, 1)
	wants := make(chan []string, 1)
	if err := s.Inject(0, func(n *Node) {
		at := n.Now()
		due := at + 20*time.Millisecond
		n.RunAt(due+20*time.Millisecond, func(n *Node) { app.record("late fn", n.Now()) })
		n.SetTimer(0, 1, due)
		n.RunAt(due, func(n *Node) { app.record("fn", n.Now()) })
		n.Send(0, due, "probe", 0, nil)
		n.SetTimer(0, 2, due+10*time.Millisecond)
		// Block past every instant queued above, so all five fall due in
		// the queue while this function runs and are taken after it.
		time.Sleep(80 * time.Millisecond)
		app.record("inject", n.Now())
		wants <- []string{
			fmt.Sprintf("inject@%v", at),
			fmt.Sprintf("timer 1@%v", due),
			fmt.Sprintf("fn@%v", due),
			fmt.Sprintf("frame probe@%v", due),
			fmt.Sprintf("timer 2@%v", due+10*time.Millisecond),
			fmt.Sprintf("late fn@%v", due+20*time.Millisecond),
		}
	}); err != nil {
		t.Fatal(err)
	}
	want := <-wants
	waitFor(t, "every queued input", func() bool { return len(app.recorded()) >= len(want) })
	if got := app.recorded(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("dispatched\n  %v\nwant\n  %v", got, want)
	}
}

// TestKillDropsQueuedWakeupsAndFunctions: a wakeup and a RunAt function a
// node queued die with it. Neither reaches the node a restart boots, even
// when that node arms the same timer id for the same instant: it sees its
// own wakeup once.
func TestKillDropsQueuedWakeupsAndFunctions(t *testing.T) {
	app := &recApp{}
	s := startService(t, app, 1)
	armed := make(chan sim.Time)
	ran := make(chan struct{}, 1)
	if err := s.Inject(0, func(n *Node) {
		at := n.Now() + 40*time.Millisecond
		n.SetTimer(0, 3, at)
		n.RunAt(at, func(*Node) { ran <- struct{}{} })
		armed <- at
	}); err != nil {
		t.Fatal(err)
	}
	at := <-armed
	s.KillRegion(0)
	s.RestartRegion(0)
	if err := s.Inject(0, func(n *Node) { n.SetTimer(0, 3, at) }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the queue to drain", func() bool { return queueLen(s) == 0 })
	// Everything the queue held has been taken by the executor ahead of
	// this input.
	synced := make(chan struct{})
	if err := s.Inject(0, func(*Node) { close(synced) }); err != nil {
		t.Fatal(err)
	}
	<-synced
	if fires := app.recordedFires(); len(fires) != 1 || fires[0] != (fireRec{u: 0, id: 3, at: at}) {
		t.Fatalf("restarted node saw fires %v, want its own one wakeup at %v", fires, at)
	}
	select {
	case <-ran:
		t.Fatal("a RunAt function queued by the killed node ran on its successor")
	default:
	}
}

// TestStopDropsOnlyHeldFrames: Stop with far-future wakeups, functions,
// kills and restarts queued records no drop for them; only the held frame
// becomes a DropDeadVSA, so sent == delivered + drops.
func TestStopDropsOnlyHeldFrames(t *testing.T) {
	s, err := New(&recApp{}, Config{NumRegions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ScheduleKill(time.Hour, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.ScheduleRestart(2*time.Hour, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	queued := make(chan struct{})
	if err := s.Inject(0, func(n *Node) {
		n.SetTimer(0, 1, n.Now()+time.Hour)
		n.RunAt(n.Now()+time.Hour, func(*Node) {})
		n.Send(1, n.Now()+time.Hour, "held", 1, nil)
		close(queued)
	}); err != nil {
		t.Fatal(err)
	}
	<-queued
	if got := queueLen(s); got != 5 {
		t.Fatalf("queue holds %d entries, want 5", got)
	}
	s.Stop()
	if got := queueLen(s); got != 0 {
		t.Fatalf("queue holds %d entries after Stop", got)
	}
	snap := s.LedgerSnapshot()
	if snap.MsgCount["net/held"] != 1 || snap.TotalMessages() != 1 {
		t.Fatalf("sent %v, want one net/held frame", snap.MsgCount)
	}
	if snap.Drops["net/held"][metrics.DropDeadVSA] != 1 || snap.TotalDrops() != 1 {
		t.Fatalf("drops %v, want one DropDeadVSA of net/held", snap.Drops)
	}
}

// TestHoldUntilDue: a frame with a future due time must not reach the app
// before that time, and must arrive after it; frames due together are
// released by the one hold goroutine, in (due, arrival) order.
func TestHoldUntilDue(t *testing.T) {
	app := &recApp{}
	s := startService(t, app, 2)
	if err := s.Inject(0, func(n *Node) {
		n.Send(1, n.Now()+80*time.Millisecond, "probe", 1, []byte("x"))
	}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if got := app.recordedFrames(); len(got) != 0 {
		t.Fatalf("frame delivered %v before its due time", got)
	}
	time.Sleep(120 * time.Millisecond)
	got := app.recordedFrames()
	if len(got) != 1 || got[0].u != 1 || got[0].kind != "probe" || !bytes.Equal(got[0].payload, []byte("x")) {
		t.Fatalf("after due time got %v, want one probe frame at region 1", got)
	}
	snap := s.LedgerSnapshot()
	if snap.MsgCount["net/probe"] != 1 || snap.Delivered["net/probe"] != 1 {
		t.Fatalf("ledger %+v, want net/probe 1 sent 1 delivered", snap)
	}

	// A burst due together is a queue, not a goroutine per frame: it costs
	// no goroutines while it waits or as it comes due, and it leaves in
	// (due, arrival) order — here a later-sent frame due earlier goes first,
	// then the burst in the order it was sent.
	const burst = 2000
	before := runtime.NumGoroutine()
	sent := make(chan sim.Time)
	if err := s.Inject(0, func(n *Node) {
		due := n.Now() + 80*time.Millisecond
		for i := 0; i < burst; i++ {
			n.Send(1, due, "burst", 1, binary.BigEndian.AppendUint16(nil, uint16(i)))
		}
		n.Send(1, due-time.Millisecond, "burst", 1, binary.BigEndian.AppendUint16(nil, burst))
		sent <- due
	}); err != nil {
		t.Fatal(err)
	}
	due := <-sent
	peak := 0
	for deadline := time.Now().Add(5 * time.Second); len(app.recordedFrames()) < 1+burst+1; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d burst frames delivered 5 s after their due time", len(app.recordedFrames())-1, burst+1)
		}
		if g := runtime.NumGoroutine(); g > peak {
			peak = g
		}
	}
	if peak > before {
		t.Errorf("%d goroutines while %d frames came due together, %d before the burst", peak, burst+1, before)
	}
	if now := s.Now(); now < due {
		t.Errorf("burst delivered at %v, before its due time %v", now, due)
	}
	for i, f := range app.recordedFrames()[1:] {
		want := uint16(i - 1)
		if i == 0 {
			want = burst
		}
		if got := binary.BigEndian.Uint16(f.payload); got != want {
			t.Fatalf("burst frame %d delivered in position %d, want frame %d there", got, i, want)
		}
	}
}

// TestKillDropsHeldFrames: a frame held for a region that dies before the
// due time resolves to a named drop, and a frame recorded under an old
// incarnation dies as a VSA reset even if the region restarted — every
// send resolves to exactly one delivery or drop.
func TestKillDropsHeldFrames(t *testing.T) {
	app := &recApp{}
	s := startService(t, app, 2)
	// Held frame whose holder dies: DropDeadVSA.
	if err := s.Inject(0, func(n *Node) {
		n.Send(1, n.Now()+60*time.Millisecond, "doomed", 0, nil)
	}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	s.KillRegion(1)
	// Held frame recorded pre-restart, due post-restart: DropVSAReset.
	s.RestartRegion(1)
	time.Sleep(100 * time.Millisecond)

	snap := s.LedgerSnapshot()
	if snap.MsgCount["net/doomed"] != 1 {
		t.Fatalf("sent %d doomed frames, want 1", snap.MsgCount["net/doomed"])
	}
	drops := int64(0)
	for _, n := range snap.Drops["net/doomed"] {
		drops += n
	}
	if snap.Delivered["net/doomed"]+drops != 1 {
		t.Fatalf("doomed frame unaccounted: delivered %d, drops %v", snap.Delivered["net/doomed"], snap.Drops["net/doomed"])
	}
	if drops != 1 {
		t.Fatalf("doomed frame was delivered across the incarnation change: %+v", snap)
	}
}

// encodeFrame builds a whole frame from its header fields and payload.
func encodeFrame(to geo.RegionID, due sim.Time, kind string, payload []byte) []byte {
	return append(NewFrame(to, due, kind, len(payload)), payload...)
}

// TestParseFrameRejectsHostileInput: the frame header is untrusted wire
// input — truncation, oversized kind lengths, and negative fields must be
// rejected before any payload handling.
func TestParseFrameRejectsHostileInput(t *testing.T) {
	good := encodeFrame(3, 17*time.Millisecond, "grow", []byte("payload"))
	to, due, kind, payload, err := parseFrame(good)
	if err != nil || to != 3 || due != 17*time.Millisecond || string(kind) != "grow" || string(payload) != "payload" {
		t.Fatalf("round trip = (%v %v %q %q %v)", to, due, kind, payload, err)
	}
	bad := [][]byte{
		nil,
		good[:5],
		good[:13],
		encodeFrame(-1, 0, "k", nil),           // negative region
		encodeFrame(1, sim.Time(-5), "k", nil), // negative due
		append(good[:12], 0xff, 0xff),          // kind length past end
		encodeFrame(1, 0, string(make([]byte, 300)), nil), // kind over bound
	}
	for i, b := range bad {
		if _, _, _, _, err := parseFrame(b); err == nil {
			t.Errorf("hostile frame %d accepted", i)
		}
	}
}

// TestTCPTransportLoopback runs the same service semantics over a real TCP
// listener: frames self-route back to the single process and land intact.
func TestTCPTransportLoopback(t *testing.T) {
	tr, err := NewTCPTransport("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	app := &recApp{}
	s, err := New(app, Config{NumRegions: 2, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	if err := s.Inject(0, func(n *Node) {
		n.Send(1, n.Now()+10*time.Millisecond, "tcp", 1, []byte("over-the-wire"))
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		got := app.recordedFrames()
		if len(got) == 1 {
			if got[0].u != 1 || got[0].kind != "tcp" || string(got[0].payload) != "over-the-wire" {
				t.Fatalf("got %v", got)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("frame never arrived over TCP")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTCPTransportRejectsOversizedFrame: a hostile length prefix must kill
// the stream without allocating.
func TestTCPTransportRejectsOversizedFrame(t *testing.T) {
	tr, err := NewTCPTransport("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got [][]byte
	if err := tr.Start(func(f []byte) {
		mu.Lock()
		got = append(got, f)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	if err := tr.Send(0, make([]byte, maxTCPFrame+1)); err == nil {
		t.Error("oversized send accepted")
	}
	// Raw hostile stream: a 512MiB length prefix.
	if err := tr.Send(0, encodeFrame(0, 0, "ok", nil)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	mu.Lock()
	n := len(got)
	mu.Unlock()
	if n != 1 {
		t.Fatalf("got %d frames, want the 1 valid one", n)
	}
}
