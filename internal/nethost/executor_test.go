package nethost

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"vinestalk/internal/geo"
	"vinestalk/internal/metrics"
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

// parkExecutor runs an injected function on region u that holds the
// executor until the returned release is called; release also runs at
// cleanup, before the service's Stop waits for the executor.
func parkExecutor(t *testing.T, s *Service, u geo.RegionID) (release func()) {
	t.Helper()
	gate, parked := make(chan struct{}), make(chan struct{})
	if err := s.Inject(u, func(*Node) { close(parked); <-gate }); err != nil {
		t.Fatal(err)
	}
	<-parked
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	return release
}

// fillInjects parks the executor and queues maxInjected injected functions
// for region u behind it, so that the next Inject blocks.
func fillInjects(t *testing.T, s *Service, u geo.RegionID) (release func()) {
	t.Helper()
	release = parkExecutor(t, s, u)
	for i := 0; i < maxInjected; i++ {
		if err := s.Inject(u, func(*Node) {}); err != nil {
			t.Fatal(err)
		}
	}
	return release
}

// injectAsync runs Inject(u, fn) on a goroutine of its own and returns its
// result channel once the call waits for room in the queue.
func injectAsync(t *testing.T, s *Service, u geo.RegionID, fn func(*Node)) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	want := waitingInjects(s) + 1
	go func() { done <- s.Inject(u, fn) }()
	waitFor(t, "the Inject to wait for room", func() bool { return waitingInjects(s) == want })
	return done
}

// waitingInjects reads how many Injects wait for room in s's queue.
func waitingInjects(s *Service) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.waiting
}

// TestStartAddsOneGoroutine: the regions run on the service's one
// executor, so Start adds as many goroutines for 64 regions as for 1.
func TestStartAddsOneGoroutine(t *testing.T) {
	added := func(regions int) int {
		runtime.GC()
		before := runtime.NumGoroutine()
		s := startService(t, &recApp{}, regions)
		synced := make(chan struct{})
		if err := s.Inject(geo.RegionID(regions-1), func(*Node) { close(synced) }); err != nil {
			t.Fatal(err)
		}
		<-synced
		n := runtime.NumGoroutine() - before
		s.Stop()
		return n
	}
	one, many := added(1), added(64)
	t.Logf("Start adds %d goroutines for 1 region, %d for 64", one, many)
	if many != one {
		t.Fatalf("Start adds %d goroutines for 64 regions and %d for 1, want as many", many, one)
	}
}

// TestInjectBlocksPastTheBound: maxInjected injected functions may wait in
// the queue. The Inject after them blocks until the executor takes one,
// and then gets in, last in line.
func TestInjectBlocksPastTheBound(t *testing.T) {
	s := startService(t, &recApp{}, 2)
	release := fillInjects(t, s, 0)
	ran := 0 // region 1's inputs run; written by the executor, read after last closes
	last := make(chan int, 1)
	done := injectAsync(t, s, 1, func(*Node) { ran++; last <- ran })
	if got := queueLen(s); got != maxInjected {
		t.Fatalf("queue holds %d entries while an Inject waits, want %d", got, maxInjected)
	}
	release()
	if err := <-done; err != nil {
		t.Fatalf("the blocked Inject, released: %v", err)
	}
	if got := <-last; got != 1 {
		t.Fatalf("the released input ran as region 1's input %d, want its first", got)
	}
	if got := queueLen(s); got != 0 {
		t.Fatalf("queue holds %d entries after the released input ran, want 0: it was not last in line", got)
	}
}

// TestKillRefusesEveryLaterPost: once KillRegion returns, every Inject to
// the region is refused with ErrRegionDown, and a function injected just
// before the kill never runs.
func TestKillRefusesEveryLaterPost(t *testing.T) {
	s := startService(t, &recApp{}, 2)
	ran := make(chan int, 200)
	for i := 0; i < 200; i++ {
		release := parkExecutor(t, s, 1)
		if err := s.Inject(0, func(*Node) { ran <- i }); err != nil {
			t.Fatal(err)
		}
		s.KillRegion(0)
		if err := s.Inject(0, func(*Node) {}); !errors.Is(err, ErrRegionDown) {
			t.Fatalf("kill %d: Inject into the killed region = %v, want ErrRegionDown", i, err)
		}
		release()
		s.RestartRegion(0)
	}
	synced := make(chan struct{})
	if err := s.Inject(0, func(*Node) { close(synced) }); err != nil {
		t.Fatal(err)
	}
	<-synced
	if len(ran) != 0 {
		t.Fatalf("input %d, injected before its region's kill, ran", <-ran)
	}
}

// TestKillRefusesBlockedPosters: an Inject blocked at the bound when its
// region is killed is woken and refused with ErrRegionDown; one for a live
// region stays blocked.
func TestKillRefusesBlockedPosters(t *testing.T) {
	s := startService(t, &recApp{}, 2)
	release := fillInjects(t, s, 0)
	doomed := injectAsync(t, s, 1, func(*Node) {})
	waiting := injectAsync(t, s, 0, func(*Node) {})
	s.KillRegion(1)
	if err := <-doomed; !errors.Is(err, ErrRegionDown) {
		t.Fatalf("Inject blocked across its region's kill = %v, want ErrRegionDown", err)
	}
	waitFor(t, "the live region's Inject to wait again", func() bool { return waitingInjects(s) == 1 })
	release()
	if err := <-waiting; err != nil {
		t.Fatal(err)
	}
}

// TestStopRefusesBlockedInject: Stop wakes an Inject blocked at the bound
// and refuses it.
func TestStopRefusesBlockedInject(t *testing.T) {
	s := startService(t, &recApp{}, 1)
	release := fillInjects(t, s, 0)
	blocked := injectAsync(t, s, 0, func(*Node) {})
	stopped := make(chan struct{})
	go func() { s.Stop(); close(stopped) }()
	if err := <-blocked; !errors.Is(err, ErrRegionDown) {
		t.Fatalf("Inject blocked across Stop = %v, want ErrRegionDown", err)
	}
	release()
	<-stopped
}

// TestInjectFIFOWithConcurrentCallers: injected functions run in the order
// they were injected — per caller when several inject at once, through a
// queue that fills past the bound and blocks them.
func TestInjectFIFOWithConcurrentCallers(t *testing.T) {
	const callers, each = 4, 3 * maxInjected / 2
	s := startService(t, &recApp{}, callers)
	last := [callers]int{-1, -1, -1, -1}
	var bad [callers]int // the executor writes these; read after wg.Wait and a sync input
	var wg sync.WaitGroup
	for p := 0; p < callers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := s.Inject(geo.RegionID(p), func(*Node) {
					if i != last[p]+1 {
						bad[p]++
					}
					last[p] = i
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	synced := make(chan struct{})
	if err := s.Inject(0, func(*Node) { close(synced) }); err != nil {
		t.Fatal(err)
	}
	<-synced
	for p := range last {
		if bad[p] != 0 || last[p] != each-1 {
			t.Fatalf("caller %d: %d inputs out of order, last ran %d of %d", p, bad[p], last[p], each)
		}
	}
}

// TestKillBetweenFramesDropsTheSecond: of two frames for one region with a
// kill of the region queued between them — an input of another region, due
// at the second frame's instant and queued before it — the first runs on
// the node before the kill and the second dies as a DropDeadVSA.
func TestKillBetweenFramesDropsTheSecond(t *testing.T) {
	for round := 0; round < 10; round++ {
		const at = 40 * time.Millisecond
		app := &recApp{}
		s, err := New(app, Config{NumRegions: 2})
		if err != nil {
			t.Fatal(err)
		}
		s.RegisterKinds("first", "second")
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		s.Receive(encodeFrame(1, at-time.Nanosecond, "first", []byte{1}))
		queued := make(chan struct{})
		if err := s.Inject(0, func(n *Node) {
			n.RunAt(at, func(*Node) { s.KillRegion(1) })
			close(queued)
		}); err != nil {
			t.Fatal(err)
		}
		<-queued
		s.Receive(encodeFrame(1, at, "second", []byte{2}))
		waitFor(t, "the kill", func() bool { return !s.RegionAlive(1) })
		waitFor(t, "the queue to drain", func() bool { return queueLen(s) == 0 })
		s.Stop()
		if got := app.recordedFrames(); len(got) != 1 || got[0].kind != "first" {
			t.Fatalf("round %d: the node took frames %v, want only the first", round, got)
		}
		snap := s.LedgerSnapshot()
		if snap.Delivered["net/first"] != 1 || snap.Delivered["net/second"] != 0 ||
			snap.Drops["net/second"][metrics.DropDeadVSA] != 1 {
			t.Fatalf("round %d: delivered %v, drops %v; want first delivered and second a DropDeadVSA",
				round, snap.Delivered, snap.Drops)
		}
	}
}

// TestReceiveInternsNoKind: a frame off the wire whose kind the service
// has neither sent nor had registered dies on the malformed row as an
// unknown kind, and leaves the kind table as it was, however many distinct
// kinds arrive; a registered kind is held and delivered.
func TestReceiveInternsNoKind(t *testing.T) {
	app := &recApp{}
	s, err := New(app, Config{NumRegions: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.RegisterKinds("known")
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	kindCount := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.kinds)
	}
	before := kindCount()
	const distinct = 5000
	for i := 0; i < distinct; i++ {
		s.Receive(encodeFrame(0, 0, fmt.Sprintf("k%d", i), []byte{1}))
	}
	if got := kindCount(); got != before {
		t.Fatalf("%d frames of distinct unknown kinds grew the kind table from %d to %d", distinct, before, got)
	}
	s.Receive(encodeFrame(0, 0, "known", []byte("x")))
	waitFor(t, "the registered kind's frame", func() bool { return len(app.recordedFrames()) == 1 })
	snap := s.LedgerSnapshot()
	if got := snap.Drops["net/malformed"][metrics.DropUnknownKind]; got != distinct {
		t.Fatalf("unknown-kind drops = %d, want %d", got, distinct)
	}
	if snap.Delivered["net/known"] != 1 || len(snap.Delivered) != 1 {
		t.Fatalf("delivered %v, want one net/known", snap.Delivered)
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

// TestInjectAndDispatchAllocateNothing: on a warmed service, injecting a
// function or receiving a frame of a registered kind, and running it on
// its node, allocates nothing.
func TestInjectAndDispatchAllocateNothing(t *testing.T) {
	app := &frameSignalApp{delivered: make(chan struct{})}
	s := startService(t, app, 1)
	s.RegisterKinds("probe")
	ran := make(chan struct{})
	fn := func(*Node) { ran <- struct{}{} }
	frame := encodeFrame(0, 0, "probe", []byte("x"))
	round := func() {
		if err := s.Inject(0, fn); err != nil {
			t.Fatal(err)
		}
		<-ran
		s.Receive(frame)
		<-app.delivered
	}
	round()
	if allocs := testing.AllocsPerRun(1000, round); allocs != 0 {
		t.Fatalf("an inject and a frame, each run on the node, allocate %.2f times per round, want 0", allocs)
	}
}

// TestIdleNodesRetainLittleHeap pins the live heap an idle node keeps after
// traffic: 4 × maxInjected injected inputs spread over 64 regions, so the
// queue fills to the bound, all run, then a GC. Per node that is the
// node, its automaton and timer table, and a 64th of what the queue keeps
// once drained.
func TestIdleNodesRetainLittleHeap(t *testing.T) {
	const regions = 64
	// Measured 0.24–1.1 KB a node, with or without -race (linux/amd64,
	// go1.24). The drained queue keeps holdQueueMinCap entries, 1 KB a node
	// here; the bound leaves 0.9 KB for the node itself and GC noise. With
	// a mailbox per node it read 1.4–1.7 KB.
	const boundPerNode = 1900
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
			for i := 0; i < 4*maxInjected/regions; i++ {
				if err := s.Inject(u, func(*Node) {}); err != nil {
					t.Error(err)
					return
				}
			}
		}(u)
	}
	wg.Wait()
	synced := make(chan struct{})
	if err := s.Inject(0, func(*Node) { close(synced) }); err != nil {
		t.Fatal(err)
	}
	<-synced
	perNode := (liveHeap() - before) / regions
	runtime.KeepAlive(s)
	t.Logf("live heap per idle node: %d B", perNode)
	if perNode > boundPerNode {
		t.Fatalf("an idle node retains %d B of live heap, want at most %d", perNode, boundPerNode)
	}
}
