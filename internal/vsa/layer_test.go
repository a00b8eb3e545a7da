package vsa

import (
	"testing"
	"time"

	"vinestalk/internal/geo"
	"vinestalk/internal/sim"
)

// recClient records GPS updates and received messages.
type recClient struct {
	gps  []geo.RegionID
	msgs []any
}

func (c *recClient) GPSUpdate(u geo.RegionID) { c.gps = append(c.gps, u) }
func (c *recClient) Receive(msg any)          { c.msgs = append(c.msgs, msg) }

// recVSA records deliveries and resets.
type recVSA struct {
	msgs   []any
	resets int
}

func (v *recVSA) Receive(level int, msg any) { v.msgs = append(v.msgs, msg) }
func (v *recVSA) Reset()                     { v.resets++; v.msgs = nil }

func newTestLayer(t *testing.T, opts ...Option) (*sim.Kernel, *Layer) {
	t.Helper()
	k := sim.New(1)
	return k, NewLayer(k, geo.MustGridTiling(3, 3), opts...)
}

func TestAddClientDeliversGPSUpdate(t *testing.T) {
	_, l := newTestLayer(t)
	c := &recClient{}
	if err := l.AddClient(1, 4, c); err != nil {
		t.Fatal(err)
	}
	if len(c.gps) != 1 || c.gps[0] != 4 {
		t.Fatalf("gps = %v, want [r4]", c.gps)
	}
	if got := l.ClientRegion(1); got != 4 {
		t.Errorf("ClientRegion = %v, want r4", got)
	}
	if err := l.AddClient(1, 5, &recClient{}); err == nil {
		t.Error("duplicate AddClient succeeded")
	}
	if err := l.AddClient(2, geo.RegionID(99), &recClient{}); err == nil {
		t.Error("AddClient outside tiling succeeded")
	}
}

func TestMoveClientGPSUpdates(t *testing.T) {
	_, l := newTestLayer(t)
	c := &recClient{}
	if err := l.AddClient(1, 0, c); err != nil {
		t.Fatal(err)
	}
	if err := l.MoveClient(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := l.MoveClient(1, 1); err != nil { // same-region move is a no-op
		t.Fatal(err)
	}
	if len(c.gps) != 2 || c.gps[1] != 1 {
		t.Fatalf("gps = %v, want [r0 r1]", c.gps)
	}
	if err := l.MoveClient(99, 1); err == nil {
		t.Error("MoveClient of unknown client succeeded")
	}
}

func TestVSAAliveFollowsOccupancy(t *testing.T) {
	k, l := newTestLayer(t, WithTRestart(100*time.Millisecond))
	v := &recVSA{}
	l.RegisterVSA(0, v)
	c := &recClient{}
	if err := l.AddClient(1, 0, c); err != nil {
		t.Fatal(err)
	}
	l.StartAllAlive()
	if !l.Alive(0) {
		t.Fatal("occupied region's VSA not alive after StartAllAlive")
	}
	inc := l.Incarnation(0)

	// Client leaves: VSA fails immediately, state reset.
	if err := l.MoveClient(1, 1); err != nil {
		t.Fatal(err)
	}
	if l.Alive(0) {
		t.Fatal("clientless region's VSA still alive")
	}
	if v.resets != 1 {
		t.Errorf("resets = %d, want 1", v.resets)
	}
	if l.Incarnation(0) == inc {
		t.Error("incarnation unchanged across failure")
	}

	// Client returns: restart only after continuous t_restart occupancy.
	if err := l.MoveClient(1, 0); err != nil {
		t.Fatal(err)
	}
	k.RunFor(50 * time.Millisecond)
	if l.Alive(0) {
		t.Fatal("VSA restarted before t_restart")
	}
	k.RunFor(60 * time.Millisecond)
	if !l.Alive(0) {
		t.Fatal("VSA did not restart after t_restart")
	}
	if v.resets != 2 {
		t.Errorf("resets = %d, want 2 (reset on restart)", v.resets)
	}
}

func TestVSARestartAbandonedIfRegionEmpties(t *testing.T) {
	k, l := newTestLayer(t, WithTRestart(100*time.Millisecond))
	l.RegisterVSA(0, &recVSA{})
	c := &recClient{}
	if err := l.AddClient(1, 1, c); err != nil {
		t.Fatal(err)
	}
	l.StartAllAlive()
	if err := l.MoveClient(1, 0); err != nil { // start restart countdown for r0
		t.Fatal(err)
	}
	k.RunFor(50 * time.Millisecond)
	if err := l.MoveClient(1, 1); err != nil { // abandon it
		t.Fatal(err)
	}
	k.RunFor(200 * time.Millisecond)
	if l.Alive(0) {
		t.Fatal("VSA restarted although occupancy was interrupted")
	}
}

func TestFailAndRestartClient(t *testing.T) {
	_, l := newTestLayer(t)
	c := &recClient{}
	if err := l.AddClient(1, 0, c); err != nil {
		t.Fatal(err)
	}
	l.FailClient(1)
	if l.ClientAlive(1) {
		t.Fatal("failed client reports alive")
	}
	if got := l.ClientRegion(1); got != geo.NoRegion {
		t.Errorf("failed client region = %v, want NoRegion", got)
	}
	if l.DeliverToClient(1, "msg") {
		t.Error("delivery to failed client succeeded")
	}
	if err := l.MoveClient(1, 2); err == nil {
		t.Error("MoveClient on failed client succeeded")
	}
	if err := l.RestartClient(1, 2); err != nil {
		t.Fatal(err)
	}
	if got := l.ClientRegion(1); got != 2 {
		t.Errorf("restarted client region = %v, want r2", got)
	}
	if len(c.gps) != 2 || c.gps[1] != 2 {
		t.Errorf("gps = %v, want restart GPSUpdate", c.gps)
	}
	if err := l.RestartClient(1, 2); err == nil {
		t.Error("RestartClient on alive client succeeded")
	}
	if err := l.RestartClient(42, 2); err == nil {
		t.Error("RestartClient on unknown client succeeded")
	}
	l.FailClient(42) // unknown: no-op
}

func TestClientsInSorted(t *testing.T) {
	_, l := newTestLayer(t)
	for _, id := range []ClientID{5, 1, 3} {
		if err := l.AddClient(id, 4, &recClient{}); err != nil {
			t.Fatal(err)
		}
	}
	got := l.ClientsIn(4)
	want := []ClientID{1, 3, 5}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("ClientsIn = %v, want %v", got, want)
	}
	if l.ClientsIn(geo.NoRegion) != nil {
		t.Error("ClientsIn(NoRegion) should be nil")
	}
}

// A slice handed out by ClientsIn is a snapshot: clients that arrive, leave
// or fail afterwards — say from a handler run while a broadcast loops over
// it — change what the next call returns, never the slice in hand. And the
// call itself costs nothing.
func TestClientsInIsASnapshot(t *testing.T) {
	_, l := newTestLayer(t, WithAlwaysAlive())
	for _, id := range []ClientID{5, 1, 3} {
		if err := l.AddClient(id, 4, &recClient{}); err != nil {
			t.Fatal(err)
		}
	}
	held := l.ClientsIn(4)
	l.FailClient(3)
	if err := l.MoveClient(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := l.AddClient(2, 4, &recClient{}); err != nil {
		t.Fatal(err)
	}
	if err := l.AddClient(9, 4, &recClient{}); err != nil {
		t.Fatal(err)
	}
	if len(held) != 3 || held[0] != 1 || held[1] != 3 || held[2] != 5 {
		t.Errorf("snapshot taken before the changes now reads %v, want [p1 p3 p5]", held)
	}
	if got := l.ClientsIn(4); len(got) != 3 || got[0] != 2 || got[1] != 5 || got[2] != 9 {
		t.Errorf("ClientsIn = %v, want [p2 p5 p9]", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = l.ClientsIn(4) }); allocs != 0 {
		t.Errorf("ClientsIn allocates %v times per call", allocs)
	}
}

func TestDeliverToVSA(t *testing.T) {
	_, l := newTestLayer(t)
	v := &recVSA{}
	l.RegisterVSA(0, v)
	if l.DeliverToVSA(0, 1, "msg") {
		t.Fatal("delivery to failed VSA succeeded")
	}
	if err := l.AddClient(1, 0, &recClient{}); err != nil {
		t.Fatal(err)
	}
	l.StartAllAlive()
	if !l.DeliverToVSA(0, 1, "msg") {
		t.Fatal("delivery to alive VSA failed")
	}
	if len(v.msgs) != 1 || v.msgs[0] != "msg" {
		t.Errorf("vsa msgs = %v", v.msgs)
	}
	if l.DeliverToVSA(geo.RegionID(99), 0, "x") {
		t.Error("delivery outside tiling succeeded")
	}
	// Region 1 has no handler registered and no clients.
	if l.DeliverToVSA(1, 0, "x") {
		t.Error("delivery to unregistered dead VSA succeeded")
	}
}

func TestAlwaysAliveLayer(t *testing.T) {
	_, l := newTestLayer(t, WithAlwaysAlive())
	v := &recVSA{}
	l.RegisterVSA(8, v)
	if !l.Alive(8) {
		t.Fatal("VSA not alive under WithAlwaysAlive")
	}
	// Occupancy changes must not fail it.
	if err := l.AddClient(1, 8, &recClient{}); err != nil {
		t.Fatal(err)
	}
	if err := l.MoveClient(1, 0); err != nil {
		t.Fatal(err)
	}
	if !l.Alive(8) {
		t.Fatal("always-alive VSA failed on emptying")
	}
	if v.resets != 0 {
		t.Errorf("resets = %d, want 0", v.resets)
	}
}

func TestClientRegionUnknown(t *testing.T) {
	_, l := newTestLayer(t)
	if got := l.ClientRegion(7); got != geo.NoRegion {
		t.Errorf("ClientRegion(unknown) = %v, want NoRegion", got)
	}
	if l.ClientAlive(7) {
		t.Error("unknown client reports alive")
	}
	if l.Alive(geo.NoRegion) {
		t.Error("Alive(NoRegion) should be false")
	}
}

// The aliveness epoch must move on exactly the transitions that change the
// alive set — VSA failure, t_restart completion, and StartAllAlive — and on
// nothing else, because routing layers treat "same epoch" as "same alive
// set" when serving cached failover hops.
func TestAliveEpochBumpsOnEveryAliveSetChange(t *testing.T) {
	k, l := newTestLayer(t, WithTRestart(10*time.Millisecond))
	// Epoch 0 is reserved so zero-valued cache entries never look fresh.
	if got := l.AliveEpoch(); got != 1 {
		t.Fatalf("initial AliveEpoch = %d, want 1", got)
	}

	// Client placement alone does not change the alive set (the VSA starts
	// only after t_restart or StartAllAlive).
	if err := l.AddClient(1, 4, &recClient{}); err != nil {
		t.Fatal(err)
	}
	if got := l.AliveEpoch(); got != 1 {
		t.Fatalf("AliveEpoch after AddClient = %d, want 1", got)
	}
	l.StartAllAlive()
	afterBoot := l.AliveEpoch()
	if afterBoot <= 1 {
		t.Fatalf("AliveEpoch after StartAllAlive = %d, want > 1", afterBoot)
	}

	// Moving a client within the alive set (here: emptying r4 kills its
	// VSA) bumps; the later restart bumps again.
	if err := l.MoveClient(1, 5); err != nil {
		t.Fatal(err)
	}
	afterFail := l.AliveEpoch()
	if afterFail <= afterBoot {
		t.Fatalf("AliveEpoch after VSA failure = %d, want > %d", afterFail, afterBoot)
	}
	// r5 was clientless before the move, so it has a pending restart; let it
	// complete.
	k.RunFor(20 * time.Millisecond)
	afterRestart := l.AliveEpoch()
	if afterRestart <= afterFail {
		t.Fatalf("AliveEpoch after restart = %d, want > %d", afterRestart, afterFail)
	}

	// Quiescence: running further without lifecycle events must not move
	// the epoch.
	k.RunFor(time.Second)
	if got := l.AliveEpoch(); got != afterRestart {
		t.Fatalf("AliveEpoch moved to %d during quiescence, want %d", got, afterRestart)
	}
}
