package tracker

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"vinestalk/internal/cgcast"
	"vinestalk/internal/emul"
	"vinestalk/internal/geo"
	"vinestalk/internal/hier"
	"vinestalk/internal/sim"
	"vinestalk/internal/trace"
)

// deployEmulNodes places npr emulating nodes in every region and boots the
// emulated VSAs. Must run before the kernel processes any deliveries (the
// initial GPS inputs are still in flight then).
func deployEmulNodes(t *testing.T, f *fixture, npr int) {
	t.Helper()
	em := f.net.Emulator()
	if em == nil {
		t.Fatal("network has no emulator")
	}
	for u := 0; u < f.tiling.NumRegions(); u++ {
		for j := 0; j < npr; j++ {
			if err := em.AddNode(emul.NodeID(u*npr+j), geo.RegionID(u)); err != nil {
				t.Fatal(err)
			}
		}
	}
	em.Boot()
}

// TestEmulLockstepMatchesOracle drives the identical fixed-time move/find
// workload through an oracle-hosted and a lockstep (delta=0)
// emulation-hosted network and requires identical found outputs — same
// values at the same virtual times (per-output lag 0 ≤ e) — and identical
// pointer state. The workload is scheduled at absolute virtual times (not
// settle-to-settle) so the two runs receive every input at the same
// instant; that is the execution pair the paper's emulation-lag claim is
// about.
func TestEmulLockstepMatchesOracle(t *testing.T) {
	type foundAt struct {
		r  FindResult
		at sim.Time
	}
	const phase = 300 * time.Millisecond
	run := func(emulated bool) ([]foundAt, map[int][4]int32) {
		var opts []Option
		if emulated {
			opts = append(opts, WithEmulation(0, 50*time.Millisecond))
		}
		f := newFixture(t, fixtureConfig{side: 4, start: 0, alwaysUp: true, netOptions: opts})
		var founds []foundAt
		f.net.onFound = func(r FindResult) {
			founds = append(founds, foundAt{r: r, at: f.k.Now()})
		}
		if emulated {
			deployEmulNodes(t, f, 3)
		}
		walk := []geo.RegionID{1, 5, 6, 10, 11, 15, 14, 10}
		finds := []geo.RegionID{0, 3, 12, 15, 6}
		for i, to := range walk {
			f.k.RunUntil(sim.Time(i+1) * phase)
			if err := f.ev.MoveTo(to); err != nil {
				t.Fatal(err)
			}
			f.k.RunUntil(sim.Time(i+1)*phase + phase/2)
			if _, err := f.net.Find(finds[i%len(finds)]); err != nil {
				t.Fatal(err)
			}
		}
		f.settle()
		ptrs := make(map[int][4]int32)
		for c := 0; c < f.h.NumClusters(); c++ {
			c1, p1, u1, d1 := f.net.Process(hier.ClusterID(c)).Pointers()
			ptrs[c] = [4]int32{int32(c1), int32(p1), int32(u1), int32(d1)}
		}
		return founds, ptrs
	}

	oFounds, oPtrs := run(false)
	eFounds, ePtrs := run(true)

	if len(oFounds) == 0 {
		t.Fatal("oracle run produced no found outputs")
	}
	if len(eFounds) != len(oFounds) {
		t.Fatalf("emulation produced %d founds, oracle %d", len(eFounds), len(oFounds))
	}
	for i := range oFounds {
		if oFounds[i].r != eFounds[i].r {
			t.Errorf("found %d: emulation %+v, oracle %+v", i, eFounds[i].r, oFounds[i].r)
		}
		if oFounds[i].at != eFounds[i].at {
			t.Errorf("found %d: emulation output at %v, oracle at %v (lag must be 0 in lockstep)",
				i, eFounds[i].at, oFounds[i].at)
		}
	}
	for c, want := range oPtrs {
		if got := ePtrs[c]; got != want {
			t.Errorf("cluster %d pointers: emulation %v, oracle %v", c, got, want)
		}
	}
}

// TestEmulEncodeDecodeRoundTrip: the canonical region codec must round-trip
// a live tracking structure exactly, and reject corrupt input without
// committing partial state.
func TestEmulEncodeDecodeRoundTrip(t *testing.T) {
	f := newFixture(t, fixtureConfig{side: 4, start: 5, alwaysUp: true})
	f.settle()
	if err := f.ev.MoveTo(6); err != nil {
		t.Fatal(err)
	}
	f.settle()
	if _, err := f.net.Find(geo.RegionID(12)); err != nil {
		t.Fatal(err)
	}
	f.settle()

	aut := f.net.Automaton()
	nonEmpty := 0
	for u := 0; u < f.tiling.NumRegions(); u++ {
		region := geo.RegionID(u)
		enc := aut.EncodeRegion(region)
		if len(enc) == 0 {
			t.Fatalf("region %v encoded to nothing", region)
		}
		if err := aut.DecodeRegion(region, enc); err != nil {
			t.Fatalf("region %v decode: %v", region, err)
		}
		enc2 := aut.EncodeRegion(region)
		if !bytes.Equal(enc, enc2) {
			t.Errorf("region %v: encode/decode/encode not a fixed point", region)
		}
		if len(enc) > 8 { // more than the empty header: hosts live object state
			nonEmpty++
		}

		// A truncated buffer must fail without clobbering the state.
		if err := aut.DecodeRegion(region, enc[:len(enc)-1]); err == nil {
			t.Errorf("region %v: truncated state decoded without error", region)
		}
		if enc3 := aut.EncodeRegion(region); !bytes.Equal(enc, enc3) {
			t.Errorf("region %v: failed decode mutated the machine state", region)
		}
	}
	if nonEmpty == 0 {
		t.Fatal("no region carried object state; round-trip test is vacuous")
	}

	// Version and shape mismatches are named errors.
	if err := aut.DecodeRegion(geo.RegionID(0), []byte{0, 9, 0, 0}); err == nil {
		t.Error("wrong version accepted")
	}
}

// TestEmulLeaderHandoffMidFind kills the emulation leaders of the evader's
// and the origin's regions while a find is between its search and trace
// phases; the promoted followers must finish the find with the correct
// found region (Theorem 5.1 under the self-stabilizing emulation).
func TestEmulLeaderHandoffMidFind(t *testing.T) {
	tr := trace.New(4096)
	f := newFixture(t, fixtureConfig{side: 4, start: 15, alwaysUp: true,
		netOptions: []Option{
			WithEmulation(time.Millisecond, 50*time.Millisecond),
			WithTracer(tr),
		}})
	deployEmulNodes(t, f, 3)
	f.settle()
	f.assertTracksEvader()

	em := f.net.Emulator()
	id, err := f.net.Find(geo.RegionID(0))
	if err != nil {
		t.Fatal(err)
	}
	// Let the search phase climb, then decapitate the regions the trace
	// phase must pass through: the root's head and the evader's region.
	f.k.RunFor(30 * time.Millisecond)
	if f.net.FindDone(id) {
		t.Fatal("find completed before the handoff could interfere; shorten the run-in")
	}
	handoffs := 0
	for _, u := range []geo.RegionID{f.h.Head(f.h.Root()), f.ev.Region()} {
		old := em.Leader(u)
		if old == emul.NoNode {
			t.Fatalf("region %v has no leader", u)
		}
		em.FailNode(old)
		if now := em.Leader(u); now == old || now == emul.NoNode {
			t.Fatalf("region %v: leader %v not replaced (now %v)", u, old, now)
		}
		handoffs++
	}
	f.settle()

	if !f.net.FindDone(id) {
		t.Fatal("find never completed after leader handoff")
	}
	var res *FindResult
	for i := range f.founds {
		if f.founds[i].ID == id {
			res = &f.founds[i]
		}
	}
	if res == nil {
		t.Fatal("found output missing from callback")
	}
	if res.FoundAt != f.ev.Region() {
		t.Errorf("find located evader at %v, want %v", res.FoundAt, f.ev.Region())
	}
	// The handoffs must be visible in the trace.
	seen := 0
	for _, ev := range tr.Events() {
		if ev.Kind == "emul" && ev.Msg == "leader-changed" {
			seen++
		}
	}
	if seen < handoffs {
		t.Errorf("trace shows %d leader-changed events, want >= %d", seen, handoffs)
	}
	f.assertTracksEvader()
}

// TestLeaseForEmptyGuard: a HeartbeatConfig that never went through
// Network.New has no computed lease table; leaseFor must fall back instead
// of indexing leases[-1].
func TestLeaseForEmptyGuard(t *testing.T) {
	hb := &HeartbeatConfig{Period: 100 * time.Millisecond}
	if got, want := hb.leaseFor(0), 200*time.Millisecond; got != want {
		t.Errorf("leaseFor(0) on empty table = %v, want fallback %v", got, want)
	}
	if got := hb.leaseFor(3); got != 200*time.Millisecond {
		t.Errorf("leaseFor(3) on empty table = %v, want fallback", got)
	}
	hb.leases = []sim.Time{time.Second, 2 * time.Second}
	if got := hb.leaseFor(-1); got != time.Second {
		t.Errorf("leaseFor(-1) = %v, want clamp to level 0", got)
	}
	if got := hb.leaseFor(99); got != 2*time.Second {
		t.Errorf("leaseFor(99) = %v, want clamp to top level", got)
	}
}

// emulLapSteps builds a 4×4 network on the emulated host, 3 nodes per
// region and the evader at region 0, and returns its step: the next move of
// an out-and-back lap to region 15 and back (12 moves), settled, then a
// find, settled. Laps are identical, so each leaves the tracking structure
// as it found it; the fixture keeps no found.
func emulLapSteps(t *testing.T) (f *fixture, step func(), lapLen int) {
	f = newFixture(t, fixtureConfig{side: 4, start: 0, alwaysUp: true,
		netOptions: []Option{WithEmulation(time.Millisecond, 50*time.Millisecond)}})
	deployEmulNodes(t, f, 3)
	f.settle()
	path := []geo.RegionID{1, 2, 3, 7, 11, 15, 11, 7, 3, 2, 1, 0}
	origins := []geo.RegionID{15, 12, 3, 0, 5, 10}
	i := 0
	return f, func() {
		if err := f.ev.MoveTo(path[i%len(path)]); err != nil {
			t.Fatal(err)
		}
		f.settle()
		if _, err := f.net.Find(origins[i%len(origins)]); err != nil {
			t.Fatal(err)
		}
		f.settle()
		f.founds = f.founds[:0]
		i++
	}, len(path)
}

// liveHeap is the heap that survives a forced collection.
func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// Laps on the emulated host retain no output: the emulator hands each
// committed output to its sink and keeps none. What a lap still leaves is
// each replica's dedup record of the inputs it committed (measured: 24.1 kB
// per lap; 74.6 kB while the emulator also kept every output it had
// committed, 686 boxed effects a lap).
func TestEmulatedLapsRetainNoOutputs(t *testing.T) {
	const (
		warm, laps     = 4, 40
		maxBytesPerLap = 40 << 10
	)
	_, step, lapLen := emulLapSteps(t)
	for i := 0; i < warm*lapLen; i++ {
		step()
	}
	before := liveHeap()
	for i := 0; i < laps*lapLen; i++ {
		step()
	}
	perLap := float64(liveHeap()-before) / laps
	runtime.KeepAlive(step) // the network, until it has been measured
	t.Logf("live heap grew %.0f bytes per lap of %d settled move+find pairs", perLap, lapLen)
	if perLap > maxBytesPerLap {
		t.Errorf("live heap grew %.0f bytes per lap, want at most %d", perLap, maxBytesPerLap)
	}
}

// TestEmulatedMoveFindAllocs pins the allocations of one settled move+find
// on the emulated host, averaged over a lap: decoding and re-encoding the
// region for every replica's Step, the emulator's commit rounds and the
// substrate's messages (measured: 533; 757 while the emulator scanned every
// node and sorted a fresh member list on each commit round and Submit;
// 1 104 while every effect was boxed into an emulator output, and kept).
// The effects a Step emits go to a log the host reuses, so logging one
// allocates nothing.
func TestEmulatedMoveFindAllocs(t *testing.T) {
	const maxAllocs = 540
	f, step, lapLen := emulLapSteps(t)
	for i := 0; i < 2*lapLen; i++ {
		step()
	}
	allocs := testing.AllocsPerRun(lapLen, step)
	t.Logf("%.1f allocations per settled move+find", allocs)
	if allocs > maxAllocs {
		t.Errorf("%.1f allocations per settled move+find, want at most %d", allocs, maxAllocs)
	}

	h := f.net.emulHost
	var del cgcast.Delivery
	logged := testing.AllocsPerRun(100, func() {
		h.log, h.stepping = h.log[:0], true
		h.send(0, &sendEffect{})
		h.found(0, foundEffect{})
		h.recv(0, 0, 0, &del)
		h.noteGrow(0, 0)
		h.noteQuery(0, 0)
		h.timer(0, 1, time.Second, 0)
		h.stepping = false
	})
	if logged != 0 {
		t.Errorf("logging a Step's six effects allocated %.1f times, want 0", logged)
	}
}

// An emulated region's failure counts off the deliveries it accepted and had
// not committed. With tRestart < delta, one of them still commits: the
// region restarts before the emulator's broadcast of the input lands, and
// the new incarnation buffers and commits it. That commit is not counted
// again, and it does not take the place of an identical delivery the new
// incarnation accepted: here a second grow from the same sender for the
// same object is pending when the first one's stale commit runs, and it must
// stay listed and counted until its own commit. The grows come from a
// cluster outside the addressee's neighbourhood, so they change no row.
func TestStaleCommitIsCountedOnce(t *testing.T) {
	const emulDelta, tRestart = 200 * time.Millisecond, time.Millisecond
	const obj = 77
	tr := trace.New(1)
	f := newFixture(t, fixtureConfig{side: 4, start: 0, alwaysUp: true,
		netOptions: []Option{WithEmulation(emulDelta, tRestart), WithTracer(tr)}})
	deployEmulNodes(t, f, 2)
	f.settle()
	n, h, em := f.net, f.net.emulHost, f.net.Emulator()
	const u = geo.RegionID(15)
	from, to := f.h.Cluster(0, 0), f.h.Cluster(u, 0)
	if _, inHood := n.Process(to).index(from); inHood {
		t.Fatalf("%v is in %v's neighbourhood; the grows would change its rows", from, to)
	}
	if d := n.cg.ScheduleDelay(from, to); d+tRestart >= emulDelta {
		t.Fatalf("a grow takes %v; the second must reach the region before the first commits", d)
	}
	grow := func() {
		e := sendEffect{From: from, To: to, Kind: kindGrow, Body: cgcast.Body{Obj: obj}}
		n.execSend(&e)
	}
	var commits []int // at each commit of a grow: the deliveries u still holds
	tr.Attach(func(e trace.Event) {
		if e.Kind == "recv" && e.Obj == obj {
			commits = append(commits, len(h.uncommitted[u]))
		}
	})
	want := 0 // copies of a grow in flight: in C-gcast or held by u
	check := func(ctx string) {
		t.Helper()
		if want == 1 && len(commits) == 2 {
			want = 0 // the second grow committed
		}
		if got := len(n.InTransitFor(obj)); got != want || n.moveInflight != want {
			t.Fatalf("at %v (%s): %d copies listed, %d counted, want %d", f.k.Now(), ctx, got, n.moveInflight, want)
		}
	}
	stepUntil := func(ctx string, done func() bool) {
		t.Helper()
		for !done() {
			if !f.k.Step() {
				t.Fatalf("the queue drained before %s", ctx)
			}
			check(ctx)
		}
	}

	grow()
	want = 1
	check("first grow sent")
	stepUntil("the first grow reaches u", func() bool { return len(h.uncommitted[u]) == 1 })
	for _, id := range em.Members(u) {
		em.FailNode(id)
	}
	want = 0
	check("u failed")
	for id := emul.NodeID(1000); id < 1002; id++ {
		if err := em.AddNode(id, u); err != nil {
			t.Fatal(err)
		}
	}
	stepUntil("u restarts", func() bool { return em.Alive(u) })
	grow()
	want = 1
	check("second grow sent")
	stepUntil("the queue drains", func() bool { return f.k.Pending() == 0 })
	if len(commits) != 2 || commits[0] != 1 || commits[1] != 0 {
		t.Fatalf("deliveries u held at each commit of a grow: %v, want [1 0] — the first grow's stale commit, with the second pending, then the second's", commits)
	}
	check("drained")
}
