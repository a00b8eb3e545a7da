package nethost

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"vinestalk/internal/geo"
	"vinestalk/internal/metrics"
	"vinestalk/internal/vsa"
)

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// blockedPosters reads how many posters wait on b's full mailbox.
func blockedPosters(b *mailbox) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.waiting
}

// ringLen reads the length of b's ring.
func ringLen(b *mailbox) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.buf)
}

func liveNode(t *testing.T, s *Service, u geo.RegionID) *Node {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.slots[u].node
	if n == nil {
		t.Fatalf("region %v is down", u)
	}
	return n
}

// fillMailbox parks region u's node inside an injected function and fills
// its mailbox to mailboxDepth behind it. The returned release lets the node
// go; it also runs at cleanup, before the service's Stop waits for the node.
func fillMailbox(t *testing.T, s *Service, u geo.RegionID) (n *Node, release func()) {
	t.Helper()
	gate, parked := make(chan struct{}), make(chan struct{})
	if err := s.Inject(u, func(*Node) { close(parked); <-gate }); err != nil {
		t.Fatal(err)
	}
	<-parked
	for i := 0; i < mailboxDepth; i++ {
		if err := s.Inject(u, func(*Node) {}); err != nil {
			t.Fatal(err)
		}
	}
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	return liveNode(t, s, u), release
}

// TestMailboxFIFOWithConcurrentProducers: the mailbox hands messages out in
// the order they were posted — across ring wraparound and growth, and per
// producer when several post at once into a mailbox that fills and blocks.
func TestMailboxFIFOWithConcurrentProducers(t *testing.T) {
	b := newMailbox()
	next, want := vsa.TimerID(0), vsa.TimerID(0)
	post := func(k int) {
		for ; k > 0; k-- {
			if !b.post(mbMsg{id: next}) {
				t.Fatal("post to an open mailbox refused")
			}
			next++
		}
	}
	pop := func(k int) {
		for ; k > 0; k-- {
			m, ok := b.pop()
			if !ok || m.id != want {
				t.Fatalf("pop = (%d, %v), want (%d, true)", m.id, ok, want)
			}
			want++
		}
	}
	post(10) // ring of 16
	pop(7)
	post(40) // wraps, then grows with head at 7
	pop(43)
	if _, ok := b.pop(); ok {
		t.Fatal("pop from an empty mailbox succeeded")
	}

	const producers, each = 4, 3 * mailboxDepth / 2
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if !b.post(mbMsg{id: vsa.TimerID(p<<32 | i)}) {
					t.Error("post to an open mailbox refused")
					return
				}
			}
		}(p)
	}
	var last [producers]int
	for p := range last {
		last[p] = -1
	}
	for got := 0; got < producers*each; {
		m, ok := b.pop()
		if !ok {
			select {
			case <-b.ready:
			case <-time.After(5 * time.Second):
				t.Fatalf("no message after %d of %d", got, producers*each)
			}
			continue
		}
		p, i := int(m.id>>32), int(m.id&(1<<32-1))
		if i != last[p]+1 {
			t.Fatalf("producer %d: message %d after %d", p, i, last[p])
		}
		last[p] = i
		got++
	}
	wg.Wait()
}

// TestMailboxBlocksTheOverflowPoster: mailboxDepth is a bound — the poster
// of message mailboxDepth+1 waits, and one pop lets it in, last in line.
func TestMailboxBlocksTheOverflowPoster(t *testing.T) {
	b := newMailbox()
	for i := 0; i < mailboxDepth; i++ {
		if !b.post(mbMsg{id: vsa.TimerID(i)}) {
			t.Fatal("post to an open mailbox refused")
		}
	}
	done := make(chan bool)
	go func() { done <- b.post(mbMsg{id: mailboxDepth}) }()
	waitFor(t, "the overflow poster to block", func() bool { return blockedPosters(b) == 1 })
	select {
	case <-done:
		t.Fatal("the post of message mailboxDepth+1 returned while the mailbox was full")
	default:
	}
	if m, _ := b.pop(); m.id != 0 {
		t.Fatalf("first pop = message %d, want 0", m.id)
	}
	if !<-done {
		t.Fatal("the blocked post was refused after a pop made room")
	}
	for i := 1; i <= mailboxDepth; i++ {
		if m, ok := b.pop(); !ok || m.id != vsa.TimerID(i) {
			t.Fatalf("pop = (%d, %v), want (%d, true)", m.id, ok, i)
		}
	}
}

// TestMailboxGivesBackItsRingAfterABurst: a burst of 3 × mailboxDepth
// through a node grows its ring to the bound, and once the burst drains the
// ring is back to at most mailboxMinCap.
func TestMailboxGivesBackItsRingAfterABurst(t *testing.T) {
	s := startService(t, &recApp{}, 1)
	n, release := fillMailbox(t, s, 0)
	burst := make(chan error, 1)
	go func() {
		for i := 0; i < 2*mailboxDepth; i++ {
			if err := s.Inject(0, func(*Node) {}); err != nil {
				burst <- err
				return
			}
		}
		burst <- nil
	}()
	waitFor(t, "the burst to block", func() bool { return blockedPosters(n.mb) == 1 })
	if got := ringLen(n.mb); got != mailboxDepth {
		t.Fatalf("full mailbox ring holds %d slots, want %d", got, mailboxDepth)
	}
	release()
	if err := <-burst; err != nil {
		t.Fatal(err)
	}
	drained := make(chan int)
	if err := s.Inject(0, func(n *Node) { drained <- ringLen(n.mb) }); err != nil {
		t.Fatal(err)
	}
	if got := <-drained; got > mailboxMinCap {
		t.Fatalf("drained mailbox keeps a ring of %d slots, want at most %d", got, mailboxMinCap)
	}
}

// frameSignalApp reports each delivered frame on delivered, allocating
// nothing.
type frameSignalApp struct {
	recApp
	delivered chan struct{}
}

func (a *frameSignalApp) DeliverFrame(n *Node, kind string, payload []byte) {
	a.delivered <- struct{}{}
}

// TestMailboxPostAndDispatchAllocateNothing: on a warmed node kept at
// depth 1, posting an injected function or a frame and dispatching it
// allocates nothing.
func TestMailboxPostAndDispatchAllocateNothing(t *testing.T) {
	app := &frameSignalApp{delivered: make(chan struct{})}
	s := startService(t, app, 1)
	n := liveNode(t, s, 0)
	ran := make(chan struct{})
	fn := func(*Node) { ran <- struct{}{} }
	payload := []byte("x")
	round := func() {
		n.mb.post(mbMsg{fn: fn})
		<-ran
		n.mb.post(mbMsg{kind: "probe", payload: payload})
		<-app.delivered
	}
	round()
	if allocs := testing.AllocsPerRun(1000, round); allocs != 0 {
		t.Fatalf("post and dispatch at depth 1 allocate %.2f times per round, want 0", allocs)
	}
}

// TestKillRefusesEveryLaterPost: once KillRegion returns, a post to the
// node is refused every time, though its mailbox has room — so nothing is
// counted delivered to a node that will never run it, and Inject reports
// ErrRegionDown.
func TestKillRefusesEveryLaterPost(t *testing.T) {
	s := startService(t, &recApp{}, 1)
	for i := 0; i < 200; i++ {
		n := liveNode(t, s, 0)
		s.KillRegion(0)
		if n.mb.post(mbMsg{fn: func(*Node) {}}) {
			t.Fatalf("kill %d: a post to the killed node was accepted", i)
		}
		if err := s.Inject(0, func(*Node) {}); !errors.Is(err, ErrRegionDown) {
			t.Fatalf("kill %d: Inject into the killed region = %v, want ErrRegionDown", i, err)
		}
		s.RestartRegion(0)
	}
}

// TestKillRefusesBlockedPosters: an Inject and a held frame's delivery
// blocked on a full mailbox when the node is killed are both woken and
// refused — ErrRegionDown and a DropDeadVSA — and the frame is not counted
// delivered.
func TestKillRefusesBlockedPosters(t *testing.T) {
	s := startService(t, &recApp{}, 1)
	n, _ := fillMailbox(t, s, 0)
	s.mu.Lock()
	k := s.kinds[s.kindLocked("late")]
	k.row.Message(0)
	s.mu.Unlock()
	batch := []release{{n: n, kind: k.name, row: k.row}}
	injected, delivered := make(chan error, 1), make(chan struct{})
	go func() { injected <- s.Inject(0, func(*Node) {}) }()
	go func() { s.deliver(batch); close(delivered) }()
	waitFor(t, "both posters to block", func() bool { return blockedPosters(n.mb) == 2 })

	s.KillRegion(0)
	if err := <-injected; !errors.Is(err, ErrRegionDown) {
		t.Fatalf("blocked Inject across a kill = %v, want ErrRegionDown", err)
	}
	<-delivered
	snap := s.LedgerSnapshot()
	if snap.Delivered["net/late"] != 0 || snap.Drops["net/late"][metrics.DropDeadVSA] != 1 {
		t.Fatalf("frame blocked across a kill: delivered %d, drops %v; want one DropDeadVSA",
			snap.Delivered["net/late"], snap.Drops["net/late"])
	}
}

// TestIdleNodesRetainLittleHeap pins the live heap an idle node keeps after
// traffic: 2 × mailboxDepth injected inputs through each of 64 nodes,
// dispatched, then a GC. A mailbox that is a buffered channel keeps its
// whole 8 192-slot ring (≈ 320 KB a node); one that follows its depth keeps
// a small constant.
func TestIdleNodesRetainLittleHeap(t *testing.T) {
	const regions = 64
	// Measured 1.4–1.7 KB a node, and up to 3.0 KB under -race (linux/amd64,
	// go1.24); the bound is the larger + 25 %.
	const boundPerNode = 3800
	liveHeap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := liveHeap()
	s := startService(t, &recApp{}, regions)
	var wg sync.WaitGroup
	for u := geo.RegionID(0); u < regions; u++ {
		wg.Add(1)
		go func(u geo.RegionID) {
			defer wg.Done()
			for i := 0; i < 2*mailboxDepth; i++ {
				if err := s.Inject(u, func(*Node) {}); err != nil {
					t.Error(err)
					return
				}
			}
			done := make(chan struct{})
			if err := s.Inject(u, func(*Node) { close(done) }); err != nil {
				t.Error(err)
				return
			}
			<-done
		}(u)
	}
	wg.Wait()
	perNode := (liveHeap() - before) / regions
	runtime.KeepAlive(s)
	t.Logf("live heap per idle node: %d B", perNode)
	if perNode > boundPerNode {
		t.Fatalf("an idle node retains %d B of live heap, want at most %d", perNode, boundPerNode)
	}
}
