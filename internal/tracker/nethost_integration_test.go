package tracker_test

// Networked-host integration tests: the same Tracker automaton that the
// sim fixtures drive through a discrete-event kernel runs here on real
// goroutines, wall-clock timers, and a real transport — and must produce
// the same found outputs and pointer structure as the oracle on a fixed
// move/find schedule. These tests live outside package tracker so they can
// use the lookahead checkers (which import tracker).

import (
	"sync"
	"testing"
	"time"

	"vinestalk/internal/cgcast"
	"vinestalk/internal/chaos"
	"vinestalk/internal/evader"
	"vinestalk/internal/geo"
	"vinestalk/internal/geocast"
	"vinestalk/internal/hier"
	"vinestalk/internal/lookahead"
	"vinestalk/internal/metrics"
	"vinestalk/internal/nethost"
	"vinestalk/internal/sim"
	"vinestalk/internal/tracker"
	"vinestalk/internal/vbcast"
	"vinestalk/internal/vsa"
)

const (
	netDelta = 10 * time.Millisecond
	netLagE  = 5 * time.Millisecond
	netUnit  = netDelta + netLagE
)

// scheduleSlack is the wall-clock slip the fixed schedule tolerates: the
// networked run reproduces the oracle's outputs only while no input lands
// on the other side of a protocol event it is racing, and goroutine
// scheduling on a loaded machine slips by milliseconds.
const scheduleSlack = 4 * netUnit

// oracleRun drives the fixed schedule through the oracle-hosted sim stack
// and returns its found outputs, quiescent pointer state and ledger. In
// phase i the object moves at i·phase and a find is issued findAt later.
// The schedule checks itself: every move's updates must have settled, and
// every find must have been answered, scheduleSlack before the next input.
func oracleRun(t *testing.T, side int, start geo.RegionID, walk, finds []geo.RegionID, phase, findAt sim.Time) (map[tracker.FindID]tracker.FindResult, map[int][4]int32, metrics.Snapshot) {
	t.Helper()
	k := sim.New(42)
	tiling := geo.MustGridTiling(side, side)
	h := hier.MustGrid(tiling, 2)
	layer := vsa.NewLayer(k, tiling, vsa.WithAlwaysAlive())
	ledger := metrics.NewLedger()
	vb := vbcast.New(k, layer, netDelta, netLagE, ledger)
	gc := geocast.New(k, layer, h.Graph(), vb, ledger)
	geom := hier.MeasureGeometry(h)
	cg, err := cgcast.New(h, layer, gc, vb, geom, ledger)
	if err != nil {
		t.Fatal(err)
	}
	founds := make(map[tracker.FindID]tracker.FindResult)
	net, err := tracker.New(cg, geom, tracker.WithFoundCallback(func(r tracker.FindResult) {
		founds[r.ID] = r
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.AddStationaryClients(); err != nil {
		t.Fatal(err)
	}
	layer.StartAllAlive()
	ev, err := evader.New(tiling, start, net.Sink())
	if err != nil {
		t.Fatal(err)
	}
	net.AttachEvader(ev.Region)

	var lastFind tracker.FindID
	for i, to := range walk {
		moveAt := sim.Time(i+1) * phase
		k.RunUntil(moveAt - scheduleSlack)
		if lastFind != 0 && !net.FindDone(lastFind) {
			t.Fatalf("schedule too tight: find %d unanswered %v before move %d", lastFind, scheduleSlack, i)
		}
		k.RunUntil(moveAt)
		if err := ev.MoveTo(to); err != nil {
			t.Fatal(err)
		}
		k.RunUntil(moveAt + findAt - scheduleSlack)
		if !net.MoveQuiescent() {
			t.Fatalf("schedule too tight: move %d unsettled %v before its find", i, scheduleSlack)
		}
		k.RunUntil(moveAt + findAt)
		if lastFind, err = net.Find(finds[i%len(finds)]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.RunLimited(2_000_000); err != nil {
		t.Fatal(err)
	}
	ptrs := make(map[int][4]int32)
	for c := 0; c < h.NumClusters(); c++ {
		c1, p1, u1, d1 := net.Process(hier.ClusterID(c)).Pointers()
		ptrs[c] = [4]int32{int32(c1), int32(p1), int32(u1), int32(d1)}
	}
	return founds, ptrs, ledger.Snapshot()
}

// netStack assembles a NetHost over an in-process transport.
func netStack(t *testing.T, side int, cfg tracker.NetConfig) (*tracker.NetHost, *nethost.Service, *hier.Hierarchy) {
	t.Helper()
	tiling := geo.MustGridTiling(side, side)
	h := hier.MustGrid(tiling, 2)
	if cfg.Geom.N == nil {
		cfg.Geom = hier.MeasureGeometry(h)
	}
	nh, err := tracker.NewNetHost(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := nethost.New(nh, nethost.Config{NumRegions: tiling.NumRegions()})
	if err != nil {
		t.Fatal(err)
	}
	nh.Attach(svc)
	return nh, svc, h
}

// waitUntil sleeps until the service's virtual clock passes at.
func waitUntil(svc *nethost.Service, at sim.Time) {
	for {
		d := time.Duration(at - svc.Now())
		if d <= 0 {
			return
		}
		time.Sleep(d)
	}
}

// netPointerState snapshots every cluster's pointers into a lookahead
// state (Transit empty — call only at quiescence).
func netPointerState(t *testing.T, nh *tracker.NetHost, h *hier.Hierarchy) *lookahead.State {
	t.Helper()
	s := lookahead.NewState(h)
	for c := 0; c < h.NumClusters(); c++ {
		id := hier.ClusterID(c)
		cp, pp, up, down, err := nh.ClusterPointers(id)
		if err != nil {
			t.Fatalf("pointer snapshot of %v: %v", id, err)
		}
		s.C[c], s.P[c], s.Up[c], s.Down[c] = cp, pp, up, down
	}
	return s
}

// TestNetHostMatchesOracleOnFixedSchedule is the tentpole parity test: the
// E12 move/find schedule, driven in real time against the networked host,
// must produce found outputs identical to the oracle twin, identical
// quiescent pointer state, and a state satisfying Theorem 4.8
// (lookAhead(state) == atomicMoveSeq(trail)).
func TestNetHostMatchesOracleOnFixedSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time schedule (~6s)")
	}
	const side = 4
	// On this walk the slowest move settles 294 ms after its input and the
	// slowest find is answered 146 ms after its own; oracleRun fails if
	// either comes within scheduleSlack of the next input.
	const phase = 600 * time.Millisecond
	const findAt = 360 * time.Millisecond
	start := geo.RegionID(0)
	walk := []geo.RegionID{1, 5, 6, 10, 11, 15, 14, 10}
	finds := []geo.RegionID{0, 3, 12, 15, 6}

	oFounds, oPtrs, oLedger := oracleRun(t, side, start, walk, finds, phase, findAt)
	if len(oFounds) != len(walk) {
		t.Fatalf("oracle completed %d finds, want %d", len(oFounds), len(walk))
	}

	var mu sync.Mutex
	nFounds := make(map[tracker.FindID]tracker.FindResult)
	nh, svc, h := netStack(t, side, tracker.NetConfig{
		Delta: netDelta, Unit: netUnit,
		OnFound: func(r tracker.FindResult) {
			mu.Lock()
			nFounds[r.ID] = r
			mu.Unlock()
		},
	})
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	defer svc.Stop()
	if err := nh.PlaceObject(tracker.DefaultObject, start); err != nil {
		t.Fatal(err)
	}
	// The schedule is a sequence of inputs first and wall-clock instants
	// second: when this goroutine or the nodes' are held up (a stolen vCPU
	// stalls them for hundreds of milliseconds), an input waits for the
	// protocol event the oracle's schedule puts before it — findAt after the
	// move actually went in, scheduleSlack after the found actually came
	// out — instead of overtaking it. On time, nothing below waits longer.
	cur := start
	next := phase
	for i, to := range walk {
		waitUntil(svc, next)
		if err := nh.MoveObject(tracker.DefaultObject, cur, to); err != nil {
			t.Fatal(err)
		}
		cur = to
		waitUntil(svc, max(sim.Time(i+1)*phase, svc.Now())+findAt)
		id, err := nh.Find(finds[i%len(finds)])
		if err != nil {
			t.Fatal(err)
		}
		for giveUp := time.Now().Add(5 * time.Second); !nh.FindDone(id); time.Sleep(time.Millisecond) {
			if time.Now().After(giveUp) {
				t.Fatalf("find %d unanswered after 5s", id)
			}
		}
		next = max(sim.Time(i+2)*phase, svc.Now()+scheduleSlack)
	}
	// Quiesce: every schedule delay is bounded well under a second on this
	// geometry; give the cascade generous slack.
	time.Sleep(time.Second)

	mu.Lock()
	got := make(map[tracker.FindID]tracker.FindResult, len(nFounds))
	for id, r := range nFounds {
		got[id] = r
	}
	mu.Unlock()
	if len(got) != len(oFounds) {
		t.Fatalf("networked host completed %d finds, oracle %d", len(got), len(oFounds))
	}
	for id, want := range oFounds {
		if gotR, ok := got[id]; !ok || gotR != want {
			t.Errorf("find %d: networked %+v, oracle %+v", id, got[id], want)
		}
	}

	// Pointer parity with the oracle twin.
	netState := netPointerState(t, nh, h)
	for c, want := range oPtrs {
		gotP := [4]int32{int32(netState.C[c]), int32(netState.P[c]), int32(netState.Up[c]), int32(netState.Down[c])}
		if gotP != want {
			t.Errorf("cluster %d pointers: networked %v, oracle %v", c, gotP, want)
		}
	}

	// Message parity on the find path. An ack due exactly at its
	// nbrtimeout's round-trip bound wins on the wall clock as in the kernel:
	// an ack that lost would escalate the find up the hierarchy, and these
	// counts would differ.
	nLedger := svc.LedgerSnapshot()
	for _, kind := range []string{tracker.KindFind, tracker.KindFindQuery, tracker.KindFindAck} {
		if got, want := nLedger.MsgCount["net/"+kind], oLedger.MsgCount["proto/"+kind]; got != want {
			t.Errorf("%s sent: networked %d, oracle %d", kind, got, want)
		}
	}

	// Theorem 4.8 at quiescence (no losses on this run, so the equality
	// form applies): lookAhead of the captured state equals the atomic
	// move sequence over the trail.
	if err := netState.CheckInvariants(); err != nil {
		t.Errorf("invariants: %v", err)
	}
	trail := append([]geo.RegionID{start}, walk...)
	want, err := lookahead.AtomicMoveSeq(h, trail)
	if err != nil {
		t.Fatal(err)
	}
	if diff := lookahead.Equal(lookahead.LookAhead(netState), want); diff != "" {
		t.Errorf("Theorem 4.8: lookAhead(state) ≠ atomicMoveSeq(trail): %s", diff)
	}
}

// TestNetHostHealsAfterRegionKill kills a goroutine on the tracking path
// (a real crash: machine state, armed timers, and held frames die),
// restarts it, and requires the §VII heartbeat extension to heal the
// structure — finds complete again, the tracking path terminates at the
// evader, and the healed state passes the invariant and Theorem 5.1
// checkers (not the Theorem 4.8 equality, which presumes no losses).
func TestNetHostHealsAfterRegionKill(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time healing (~4s)")
	}
	const side = 4
	evRegion := geo.RegionID(5)
	hb := 4 * netUnit

	var mu sync.Mutex
	founds := make(map[tracker.FindID]tracker.FindResult)
	nh, svc, h := netStack(t, side, tracker.NetConfig{
		Delta: netDelta, Unit: netUnit, Heartbeat: hb,
		OnFound: func(r tracker.FindResult) {
			mu.Lock()
			founds[r.ID] = r
			mu.Unlock()
		},
	})
	geom := hier.MeasureGeometry(h)
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	defer svc.Stop()
	if err := nh.PlaceObject(tracker.DefaultObject, evRegion); err != nil {
		t.Fatal(err)
	}
	time.Sleep(600 * time.Millisecond) // build the initial path

	// Pick a victim on the tracking path whose head is not the evader's
	// region (killing the detector would just re-seed on restart, a weaker
	// scenario): the highest-level such cluster.
	st := netPointerState(t, nh, h)
	path, err := st.TrackingPath()
	if err != nil {
		t.Fatalf("initial path: %v", err)
	}
	victim := geo.NoRegion
	for _, c := range path {
		if u := h.Head(c); u != evRegion {
			victim = u
			break
		}
	}
	if victim == geo.NoRegion {
		t.Fatal("no path region distinct from the evader's to kill")
	}
	svc.KillRegion(victim)
	time.Sleep(200 * time.Millisecond)
	svc.RestartRegion(victim)

	// Heal: leases at the break expire and a heartbeat refresh climbs
	// through the restarted (initial-state) processes.
	time.Sleep(3 * time.Second)

	origin := geo.RegionID(15)
	id, err := nh.Find(origin)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	var r tracker.FindResult
	for answered := false; !answered; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("find did not complete after heartbeat healing")
		}
		mu.Lock()
		r, answered = founds[id]
		mu.Unlock()
	}
	if !nh.FindDone(id) {
		t.Errorf("find %d reported through OnFound but not FindDone", id)
	}
	if r.FoundAt != evRegion {
		t.Errorf("found at %v, want evader region %v", r.FoundAt, evRegion)
	}

	healed := netPointerState(t, nh, h)
	hPath, err := healed.TrackingPath()
	if err != nil {
		t.Fatalf("healed path: %v", err)
	}
	if leaf := hPath[len(hPath)-1]; leaf != h.Cluster(evRegion, 0) {
		t.Errorf("healed path ends at %v, want %v", leaf, h.Cluster(evRegion, 0))
	}
	if err := healed.CheckInvariants(); err != nil {
		t.Errorf("healed invariants: %v", err)
	}
	if err := healed.CheckTheorem51(evRegion, geom); err != nil {
		t.Errorf("healed Theorem 5.1: %v", err)
	}
}

// TestNetHostChaosConservation runs a seeded fault plan as real faults and
// checks two things: the networked host compiles the exact crash windows
// the sim-kernel install would (same seed, same "crash"-stream draw
// order), and the drop-cause conservation invariant holds exactly on the
// networked path — every sent frame is delivered or accounted to a named
// drop cause, even across kills, restarts, and sampled loss.
func TestNetHostChaosConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time chaos run (~3s)")
	}
	const side = 4
	cfg := chaos.Config{
		Seed:         7,
		CrashWindows: 2,
		CrashLen:     200 * time.Millisecond,
		DropProb:     0.25,
		Horizon:      1200 * time.Millisecond,
	}
	plan, err := chaos.NewPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := chaos.NewPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}

	nh, svc, _ := netStack(t, side, tracker.NetConfig{Delta: netDelta, Unit: netUnit})
	if err := plan.InstallNet(svc); err != nil {
		t.Fatal(err)
	}

	// Window parity: the same seeded plan compiles the same schedule the
	// sim-side Install would run.
	simWindows := twin.CompileWindows(side * side)
	netWindows := plan.Windows()
	if len(simWindows) != len(netWindows) {
		t.Fatalf("window counts differ: net %d, sim %d", len(netWindows), len(simWindows))
	}
	for i := range simWindows {
		if simWindows[i] != netWindows[i] {
			t.Errorf("window %d: net %+v, sim %+v", i, netWindows[i], simWindows[i])
		}
	}

	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	defer svc.Stop()
	if err := nh.PlaceObject(tracker.DefaultObject, 0); err != nil {
		t.Fatal(err)
	}
	walk := []geo.RegionID{1, 5, 6, 10}
	cur := geo.RegionID(0)
	for i, to := range walk {
		waitUntil(svc, sim.Time(i+1)*250*time.Millisecond)
		_ = nh.MoveObject(tracker.DefaultObject, cur, to) // dead regions are part of the scenario
		cur = to
		_, _ = nh.Find(geo.RegionID(15))
	}
	waitUntil(svc, cfg.Horizon)
	// Quiesce past the horizon so every held frame has reached its due
	// time; snapshot BEFORE Stop (Stop would resolve stragglers as drops,
	// which is also conservation — but we want the live-system identity).
	time.Sleep(1500 * time.Millisecond)

	snap := svc.LedgerSnapshot()
	checked := 0
	for kind, sent := range snap.MsgCount {
		delivered := snap.Delivered[kind]
		var dropped int64
		for _, n := range snap.Drops[kind] {
			dropped += n
		}
		if delivered+dropped != sent {
			t.Errorf("%s: sent %d != delivered %d + dropped %d", kind, sent, delivered, dropped)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no message kinds accounted — workload never ran")
	}
}

// TestNetHostStopMidFlightConservation stops the service while frames are
// still sitting in their §II-C.3 hold window and checks the conservation
// invariant on the ledger the moment Stop returns: Stop must claim every
// held frame (recording it as a DropDeadVSA) or wait out its in-flight
// delivery — no frame may resolve after Stop, and none may vanish
// unaccounted.
func TestNetHostStopMidFlightConservation(t *testing.T) {
	const side = 4
	// A long δ keeps every frame sent below in hold when Stop arrives.
	const slowDelta = 250 * time.Millisecond
	nh, svc, _ := netStack(t, side, tracker.NetConfig{Delta: slowDelta, Unit: slowDelta + netLagE})
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	if err := nh.PlaceObject(tracker.DefaultObject, 0); err != nil {
		t.Fatal(err)
	}
	// Burst of moves and finds: each emits frames due ≈ now+δ, all still
	// held when Stop races them a few milliseconds later.
	cur := geo.RegionID(0)
	for _, to := range []geo.RegionID{1, 5, 6} {
		_ = nh.MoveObject(tracker.DefaultObject, cur, to)
		cur = to
		_, _ = nh.Find(geo.RegionID(15))
	}
	time.Sleep(5 * time.Millisecond) // let sends reach Receive and enter hold
	svc.Stop()

	snap := svc.LedgerSnapshot()
	checked := 0
	var deadVSADrops int64
	for kind, sent := range snap.MsgCount {
		delivered := snap.Delivered[kind]
		var dropped int64
		for _, n := range snap.Drops[kind] {
			dropped += n
		}
		if delivered+dropped != sent {
			t.Errorf("%s: sent %d != delivered %d + dropped %d", kind, sent, delivered, dropped)
		}
		deadVSADrops += snap.Drops[kind][metrics.DropDeadVSA]
		checked++
	}
	if checked == 0 {
		t.Fatal("no message kinds accounted — workload never ran")
	}
	if deadVSADrops == 0 {
		t.Error("no DropDeadVSA drops recorded — Stop claimed no held frames, so the mid-flight window never existed")
	}

	// The ledger must be quiescent: no held-frame timer survived Stop.
	time.Sleep(2 * slowDelta)
	if after := svc.LedgerSnapshot(); !snapshotsEqual(snap, after) {
		t.Error("ledger changed after Stop returned — a held frame resolved late")
	}
}

// snapshotsEqual compares the counters conservation cares about.
func snapshotsEqual(a, b metrics.Snapshot) bool {
	if len(a.MsgCount) != len(b.MsgCount) || len(a.Delivered) != len(b.Delivered) || len(a.Drops) != len(b.Drops) {
		return false
	}
	for k, v := range b.MsgCount {
		if a.MsgCount[k] != v {
			return false
		}
	}
	for k, v := range b.Delivered {
		if a.Delivered[k] != v {
			return false
		}
	}
	for k, causes := range b.Drops {
		for c, v := range causes {
			if a.Drops[k][c] != v {
				return false
			}
		}
	}
	return true
}
