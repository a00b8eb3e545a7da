package tracker

import (
	"testing"

	"vinestalk/internal/geo"
	"vinestalk/internal/vsa"
)

// breakPathAtLevel1 kills the VSA hosting the level-1 cluster on the
// evader's tracking path by evacuating its head region's clients, and
// returns that head region and the region its clients went to.
func breakPathAtLevel1(t *testing.T, f *fixture) (head, refuge geo.RegionID) {
	t.Helper()
	lvl1 := f.h.Cluster(f.ev.Region(), 1)
	head = f.h.Head(lvl1)
	refuge = f.tiling.Neighbors(head)[0]
	for _, id := range f.layer.ClientsIn(head) {
		if err := f.layer.MoveClient(id, refuge); err != nil {
			t.Fatal(err)
		}
	}
	if f.layer.Alive(head) {
		t.Fatal("level-1 head VSA still alive after evacuation")
	}
	return head, refuge
}

func TestFailureWithoutHeartbeatBreaksFinds(t *testing.T) {
	f := newFixture(t, fixtureConfig{side: 8, start: 0, tRestart: unit})
	f.settle()
	head, _ := breakPathAtLevel1(t, f)
	// Repopulate the head region so its VSA restarts (with fresh state).
	if err := f.layer.MoveClient(vsa.ClientID(int(head)), head); err != nil {
		t.Fatal(err)
	}
	f.k.RunFor(4 * unit)
	if !f.layer.Alive(head) {
		t.Fatal("VSA did not restart")
	}
	// The tracking path is broken at level 1 and nothing repairs it.
	id, err := f.net.Find(f.tiling.RegionAt(7, 7))
	if err != nil {
		t.Fatal(err)
	}
	f.k.RunFor(400 * unit)
	if f.net.FindDone(id) {
		t.Fatal("find completed through a broken path without heartbeats")
	}
}

func TestHeartbeatHealsPathAfterVSARestart(t *testing.T) {
	f := newFixture(t, fixtureConfig{side: 8, start: 0, tRestart: unit, heartbeat: 8 * unit})
	f.k.RunFor(100 * unit) // build path; heartbeats keep the queue busy
	f.assertPathReachesEvader(t)

	head, _ := breakPathAtLevel1(t, f)
	if err := f.layer.MoveClient(vsa.ClientID(int(head)), head); err != nil {
		t.Fatal(err)
	}
	// Wait for restart + a heartbeat to climb through and heal the break.
	f.k.RunFor(400 * unit)
	f.assertPathReachesEvader(t)

	id, err := f.net.Find(f.tiling.RegionAt(7, 7))
	if err != nil {
		t.Fatal(err)
	}
	f.k.RunFor(400 * unit)
	if !f.net.FindDone(id) {
		t.Fatal("find did not complete after heartbeat healing")
	}
	for _, r := range f.founds {
		if r.ID == id && r.FoundAt != f.ev.Region() {
			t.Errorf("found at %v, want %v", r.FoundAt, f.ev.Region())
		}
	}
}

func TestHeartbeatSurvivesEvaderMovesWithFailures(t *testing.T) {
	f := newFixture(t, fixtureConfig{side: 8, start: 0, tRestart: unit, heartbeat: 8 * unit})
	f.k.RunFor(100 * unit)
	// Move the evader while a mid-path VSA is down.
	head, _ := breakPathAtLevel1(t, f)
	if err := f.ev.MoveTo(f.tiling.RegionAt(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := f.layer.MoveClient(vsa.ClientID(int(head)), head); err != nil {
		t.Fatal(err)
	}
	f.k.RunFor(600 * unit)
	f.assertPathReachesEvader(t)
	id, err := f.net.Find(f.tiling.RegionAt(6, 6))
	if err != nil {
		t.Fatal(err)
	}
	f.k.RunFor(400 * unit)
	if !f.net.FindDone(id) {
		t.Fatal("find did not complete after move during failure")
	}
}

// assertPathReachesEvader is a weaker version of assertTracksEvader for
// heartbeat fixtures: stale side state may still be expiring, but the root
// must reach the evader via c pointers.
func (f *fixture) assertPathReachesEvader(t *testing.T) {
	t.Helper()
	cur := f.h.Root()
	seen := make(map[int32]bool)
	for {
		if seen[int32(cur)] {
			t.Fatalf("c-pointer walk cycles at %v", cur)
		}
		seen[int32(cur)] = true
		pr := f.net.Process(cur)
		c, _, _, _ := pr.Pointers()
		if c == cur {
			if want := f.h.Cluster(f.ev.Region(), 0); cur != want {
				t.Fatalf("path terminates at %v, want %v", cur, want)
			}
			return
		}
		if !c.Valid() {
			t.Fatalf("c-pointer walk dead-ends at %v (level %d)", cur, f.h.Level(cur))
		}
		cur = c
	}
}

// The client that detects the evader crash-stops; when a client is back in
// the region (restart), the arrival-detection of Network.AttachEvader
// re-establishes detection and heartbeats resume, keeping the structure
// alive (without it, refreshes stop and leases eventually dissolve the
// path).
func TestDetectorClientFailureAndRestart(t *testing.T) {
	f := newFixture(t, fixtureConfig{side: 8, start: 9, heartbeat: 8 * unit, tRestart: unit})
	f.k.RunFor(100 * unit)
	f.assertPathReachesEvader(t)

	detector := vsa.ClientID(9) // the stationary client of the evader's region
	f.layer.FailClient(detector)
	f.k.RunFor(20 * unit)
	if err := f.layer.RestartClient(detector, f.ev.Region()); err != nil {
		t.Fatal(err)
	}
	// The restarted client re-detects the co-located evader immediately
	// and heartbeats resume.
	f.k.RunFor(200 * unit)
	f.assertPathReachesEvader(t)
	id, err := f.net.Find(f.tiling.RegionAt(7, 7))
	if err != nil {
		t.Fatal(err)
	}
	f.k.RunFor(400 * unit)
	if !f.net.FindDone(id) {
		t.Fatal("find failed after detector client restart")
	}
}

// A client restarted in place starts from its initial state (§II-C.1): a
// detector that crash-stops, misses the evader's departure, and restarts in
// the same region must NOT resurrect its stale detection — otherwise its
// heartbeat refreshes keep a phantom lease alive at the old leaf and finds
// can answer a region the evader already left.
func TestRestartInPlaceClearsStaleDetection(t *testing.T) {
	f := newFixture(t, fixtureConfig{side: 8, start: 9, heartbeat: 8 * unit, tRestart: unit})
	f.k.RunFor(100 * unit)

	detector := vsa.ClientID(9) // the stationary client of the evader's region
	if !f.net.Client(detector).ObjectHere(DefaultObject) {
		t.Fatal("detector has not detected the co-located evader; test setup broken")
	}
	oldRegion := f.ev.Region()
	f.layer.FailClient(detector)
	// The evader departs while the detector is down: the left input is lost.
	if err := f.ev.MoveTo(f.tiling.RegionAt(2, 1)); err != nil {
		t.Fatal(err)
	}
	f.k.RunFor(20 * unit)
	if err := f.layer.RestartClient(detector, oldRegion); err != nil {
		t.Fatal(err)
	}
	if f.net.Client(detector).ObjectHere(DefaultObject) {
		t.Fatal("restarted client kept its pre-crash detection state")
	}
	// With the stale detection cleared, leases at the old leaf expire and
	// the structure converges on the evader's true region.
	f.k.RunFor(400 * unit)
	f.assertPathReachesEvader(t)
}
