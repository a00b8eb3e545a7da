package core

import (
	"testing"
	"time"

	"vinestalk/internal/emul"
	"vinestalk/internal/geo"
	"vinestalk/internal/hier"
	"vinestalk/internal/lookahead"
	"vinestalk/internal/tracker"
)

// The emulated host's region-failure path, end to end: every emulating node
// of a region on the tracking path fails while a move's messages are in
// flight to it. The host must forget the region (no wakeup stays armed for
// state that died, no in-flight message that died there keeps the
// quiescence detector waiting), and once a node returns and the region
// restarts from its initial state, the §VII heartbeat must rebuild the
// structure: every find answered at the evader's region, Theorem 5.1, and
// exactly one root-to-leaf tracking path.
func TestEmulatedRegionFailureMidMoveHeals(t *testing.T) {
	const (
		period   = 200 * time.Millisecond
		tRestart = 50 * time.Millisecond
		from, to = geo.RegionID(15), geo.RegionID(11)
	)
	s, err := New(Config{
		Width: 4, AlwaysAliveVSAs: true, Start: from, Heartbeat: period,
		Emulation: &EmulationConfig{Delta: time.Millisecond, TRestart: tRestart},
	})
	if err != nil {
		t.Fatal(err)
	}
	net, em, h := s.Network(), s.Emulator(), s.Hierarchy()
	unit := s.cfg.Delta + s.cfg.E
	s.RunFor(2*time.Second + period/2) // initial path built; next tick half a period away

	// The victim heads the lowest path cluster hosted at neither end of the
	// move: the move's own updates pass through it.
	path, err := lookahead.Capture(net).TrackingPath()
	if err != nil {
		t.Fatalf("initial path: %v", err)
	}
	victim := geo.NoRegion
	for _, c := range path {
		if u := h.Head(c); u != from && u != to {
			victim = u
		}
	}
	if victim == geo.NoRegion {
		t.Fatal("no path region distinct from both ends of the move")
	}
	inFlightTo := func(u geo.RegionID) int {
		n := 0
		for _, tr := range net.InTransit() {
			if h.Head(tr.To) == u {
				n++
			}
		}
		return n
	}

	if err := s.MoveEvader(to); err != nil {
		t.Fatal(err)
	}
	for step := 0; inFlightTo(victim) == 0; step++ {
		if step == 100 {
			t.Fatalf("move %v → %v never had a message in flight to region %v", from, to, victim)
		}
		s.RunFor(time.Millisecond)
	}
	if net.ArmedWakeups(victim) == 0 {
		t.Fatalf("region %v on the heartbeat path holds no armed lease wakeup before the failure", victim)
	}
	for _, id := range em.Members(victim) {
		em.FailNode(id)
	}
	if em.Alive(victim) {
		t.Fatalf("region %v still alive with no emulating node", victim)
	}
	if n := net.ArmedWakeups(victim); n != 0 {
		t.Errorf("%d host wakeups still armed for failed region %v", n, victim)
	}
	// Every message that was in flight at the failure has arrived (or died)
	// well within the largest schedule delay; a heartbeat tick puts fresh
	// re-announcements in flight for a few units, so look between ticks.
	quiescent := false
	for step := 0; step < 20 && !quiescent; step++ {
		s.RunFor(period / 4)
		quiescent = net.MoveQuiescent()
	}
	if !quiescent || inFlightTo(victim) != 0 {
		t.Errorf("move never quiesced after region %v failed (in transit: %v)", victim, net.InTransit())
	}

	// A node returns; the region restarts TRestart later from the initial
	// state. Two top-level leases (each 2·period + 2·climb + unit, under 1 s
	// here) let every stale pointer expire and the refresh re-grow the path.
	if err := em.AddNode(emul.NodeID(1000), victim); err != nil {
		t.Fatal(err)
	}
	s.RunFor(tRestart + 4*time.Second)
	if !em.Alive(victim) {
		t.Fatalf("region %v did not restart", victim)
	}

	var ids []tracker.FindID
	for u := 0; u < s.Tiling().NumRegions(); u++ {
		id, err := s.Find(geo.RegionID(u))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		s.RunFor(40 * unit)
	}
	founds := make(map[tracker.FindID]geo.RegionID)
	for _, r := range s.Founds() {
		founds[r.ID] = r.FoundAt
	}
	for u, id := range ids {
		if at, ok := founds[id]; !ok || at != to {
			t.Errorf("find from region %d: found at %v (answered %v), want %v", u, at, ok, to)
		}
	}

	healed := lookahead.Capture(net)
	hPath, err := healed.TrackingPath()
	if err != nil {
		t.Fatalf("healed path: %v", err)
	}
	if leaf := hPath[len(hPath)-1]; leaf != h.Cluster(to, 0) {
		t.Errorf("healed path ends at %v, want %v", leaf, h.Cluster(to, 0))
	}
	onPath := 0
	for _, c := range healed.C {
		if c != hier.NoCluster {
			onPath++
		}
	}
	if onPath != len(hPath) {
		t.Errorf("%d processes hold a child pointer, the root-to-leaf path has %d: more than one path", onPath, len(hPath))
	}
	if err := healed.CheckTheorem51(to, s.Geometry()); err != nil {
		t.Errorf("healed Theorem 5.1: %v", err)
	}
}

// A delivery the emulated region accepted but had not committed when every
// emulating node failed dies with the region, so it is resolved as a drop:
// for every instant of a move's first 100 ms at which region 10 may fail, the
// network settles with nothing left in transit. Region 10 is on the growNbr
// fan-out of the move 15 → 11; before the fix, failing it inside the commit
// window of such a delivery left the delivery "in transit" for good.
func TestEmulatedRegionFailureResolvesUncommittedDeliveries(t *testing.T) {
	const victim = geo.RegionID(10)
	for k := 0; k < 400; k++ {
		s, err := New(Config{
			Width: 4, AlwaysAliveVSAs: true, Start: 15,
			Emulation: &EmulationConfig{Delta: time.Millisecond, TRestart: 50 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Settle(); err != nil {
			t.Fatal(err)
		}
		if err := s.MoveEvader(11); err != nil {
			t.Fatal(err)
		}
		s.RunFor(time.Duration(k) * 250 * time.Microsecond)
		em := s.Emulator()
		for _, id := range em.Members(victim) {
			em.FailNode(id)
		}
		if err := s.Settle(); err != nil {
			t.Fatalf("region %v failed %v into the move: %v (in transit: %v)",
				victim, time.Duration(k)*250*time.Microsecond, err, s.Network().InTransit())
		}
	}
}
