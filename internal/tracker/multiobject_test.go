package tracker

import (
	"fmt"
	"testing"

	"vinestalk/internal/evader"
	"vinestalk/internal/geo"
	"vinestalk/internal/hier"
	"vinestalk/internal/trace"
	"vinestalk/internal/vsa"
)

// The §VII multiple-objects extension: several evaders tracked over the
// same processes, each with an independent structure.

func addSecondEvader(t *testing.T, f *fixture, obj ObjectID, start geo.RegionID) *evader.Evader {
	t.Helper()
	ev, err := evader.New(f.tiling, start, f.net.SinkFor(obj))
	if err != nil {
		t.Fatal(err)
	}
	f.net.AttachObject(obj, ev.Region)
	return ev
}

// pathFor walks object obj's c pointers from the root.
func pathFor(t *testing.T, f *fixture, obj ObjectID) []hier.ClusterID {
	t.Helper()
	var path []hier.ClusterID
	seen := make(map[hier.ClusterID]bool)
	cur := f.h.Root()
	for {
		if seen[cur] {
			t.Fatalf("object %d: path cycles at %v", obj, cur)
		}
		seen[cur] = true
		path = append(path, cur)
		c, _, _, _ := f.net.Process(cur).PointersFor(obj)
		if c == cur {
			return path
		}
		if c == hier.NoCluster {
			t.Fatalf("object %d: path dead-ends at %v", obj, cur)
		}
		cur = c
	}
}

func TestTwoObjectsTrackedIndependently(t *testing.T) {
	f := newFixture(t, fixtureConfig{side: 8, start: 0, alwaysUp: true})
	ev2 := addSecondEvader(t, f, 1, f.tiling.RegionAt(7, 7))
	f.settle()

	p0 := pathFor(t, f, DefaultObject)
	p1 := pathFor(t, f, 1)
	if leaf := p0[len(p0)-1]; leaf != f.h.Cluster(f.ev.Region(), 0) {
		t.Errorf("object 0 path ends at %v, want %v", leaf, f.h.Cluster(f.ev.Region(), 0))
	}
	if leaf := p1[len(p1)-1]; leaf != f.h.Cluster(ev2.Region(), 0) {
		t.Errorf("object 1 path ends at %v, want %v", leaf, f.h.Cluster(ev2.Region(), 0))
	}
}

func TestFindsRouteToTheRightObject(t *testing.T) {
	f := newFixture(t, fixtureConfig{side: 8, start: 0, alwaysUp: true})
	ev2 := addSecondEvader(t, f, 1, f.tiling.RegionAt(7, 7))
	f.settle()

	origin := f.tiling.RegionAt(0, 7)
	id0, err := f.net.FindObject(origin, DefaultObject)
	if err != nil {
		t.Fatal(err)
	}
	id1, err := f.net.FindObject(origin, 1)
	if err != nil {
		t.Fatal(err)
	}
	f.settle()
	if len(f.founds) != 2 {
		t.Fatalf("founds = %+v, want 2", f.founds)
	}
	for _, r := range f.founds {
		switch r.ID {
		case id0:
			if r.Object != DefaultObject || r.FoundAt != f.ev.Region() {
				t.Errorf("find %d = %+v, want object 0 at %v", r.ID, r, f.ev.Region())
			}
		case id1:
			if r.Object != 1 || r.FoundAt != ev2.Region() {
				t.Errorf("find %d = %+v, want object 1 at %v", r.ID, r, ev2.Region())
			}
		default:
			t.Errorf("unexpected find result %+v", r)
		}
	}
}

func TestObjectMovesDoNotDisturbEachOther(t *testing.T) {
	f := newFixture(t, fixtureConfig{side: 8, start: 0, alwaysUp: true})
	ev2 := addSecondEvader(t, f, 1, f.tiling.RegionAt(7, 7))
	f.settle()
	before := pathFor(t, f, 1)

	// Move only object 0 around; object 1's structure must not change.
	for x := 1; x <= 4; x++ {
		if err := f.ev.MoveTo(f.tiling.RegionAt(x, 0)); err != nil {
			t.Fatal(err)
		}
		f.settle()
	}
	after := pathFor(t, f, 1)
	if len(before) != len(after) {
		t.Fatalf("object 1 path changed: %v -> %v", before, after)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("object 1 path changed: %v -> %v", before, after)
		}
	}
	_ = ev2
	// And object 0 still tracks.
	f.assertTracksEvader()
}

func TestTwoObjectsSameRegion(t *testing.T) {
	f := newFixture(t, fixtureConfig{side: 8, start: 27, alwaysUp: true})
	ev2 := addSecondEvader(t, f, 1, geo.RegionID(27)) // same region as object 0
	f.settle()
	id0, err := f.net.FindObject(f.tiling.RegionAt(0, 0), DefaultObject)
	if err != nil {
		t.Fatal(err)
	}
	id1, err := f.net.FindObject(f.tiling.RegionAt(7, 7), 1)
	if err != nil {
		t.Fatal(err)
	}
	f.settle()
	if !f.net.FindDone(id0) || !f.net.FindDone(id1) {
		t.Fatal("co-located objects: finds incomplete")
	}
	_ = ev2
}

func TestMultiObjectWorkIsAdditive(t *testing.T) {
	// A move of one object costs the same whether or not other objects
	// are being tracked (structures are independent).
	cost := func(withSecond bool) int64 {
		f := newFixture(t, fixtureConfig{side: 8, start: 0, alwaysUp: true})
		if withSecond {
			addSecondEvader(t, f, 1, f.tiling.RegionAt(7, 7))
		}
		f.settle()
		before := f.ledger.Snapshot()
		if err := f.ev.MoveTo(f.tiling.RegionAt(1, 0)); err != nil {
			t.Fatal(err)
		}
		f.settle()
		return f.ledger.Snapshot().Sub(before).TotalWork()
	}
	solo, duo := cost(false), cost(true)
	if solo != duo {
		t.Errorf("move work with a second object = %d, alone = %d; structures should be independent", duo, solo)
	}
}

func TestMultiObjectHeartbeatHealsBoth(t *testing.T) {
	f := newFixture(t, fixtureConfig{side: 8, start: 9, heartbeat: 8 * unit, tRestart: unit})
	ev2 := addSecondEvader(t, f, 1, f.tiling.RegionAt(6, 6))
	f.k.RunFor(100 * unit)

	// Break both paths' level-1 hosts.
	for _, region := range []geo.RegionID{f.ev.Region(), ev2.Region()} {
		lvl1 := f.h.Cluster(region, 1)
		head := f.h.Head(lvl1)
		refuge := f.tiling.Neighbors(head)[0]
		for _, id := range f.layer.ClientsIn(head) {
			if err := f.layer.MoveClient(id, refuge); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.layer.MoveClient(vsaClientFor(head), head); err != nil {
			t.Fatal(err)
		}
	}
	f.k.RunFor(600 * unit)

	for obj, region := range map[ObjectID]geo.RegionID{DefaultObject: f.ev.Region(), 1: ev2.Region()} {
		id, err := f.net.FindObject(f.tiling.RegionAt(0, 7), obj)
		if err != nil {
			t.Fatal(err)
		}
		f.k.RunFor(400 * unit)
		if !f.net.FindDone(id) {
			t.Fatalf("object %d: find did not complete after healing", obj)
		}
		_ = region
	}
}

// vsaClientFor maps a region to its stationary client id (fixture
// convention: client id == region id).
func vsaClientFor(u geo.RegionID) vsa.ClientID { return vsa.ClientID(int(u)) }

// A client forgets an object that left: N objects pass through one region
// and out again, heartbeats on so each detection also started a refresh
// tick loop, and afterwards the region's client holds no entry for any of
// them and sends no refresh: each loop ended at its next tick.
func TestClientForgetsObjectsThatLeft(t *testing.T) {
	const n = 12
	period := 8 * unit
	tr := trace.New(16)
	f := newFixture(t, fixtureConfig{side: 8, start: 63, alwaysUp: true, heartbeat: period,
		netOptions: []Option{WithTracer(tr)}})
	through, out := f.tiling.RegionAt(3, 3), f.tiling.RegionAt(4, 3)
	refreshes := 0
	tr.Attach(func(e trace.Event) {
		if e.Kind == "send" && e.Msg == KindRefresh && e.From == -1 && geo.RegionID(e.Region) == through {
			refreshes++
		}
	})
	c := f.net.Client(vsa.ClientID(int(through)))
	evs := make([]*evader.Evader, n)
	for i := range evs {
		evs[i] = addSecondEvader(t, f, ObjectID(i+1), f.tiling.RegionAt(2, 3))
	}
	f.k.RunFor(50 * unit)
	for _, ev := range evs {
		if err := ev.MoveTo(through); err != nil {
			t.Fatal(err)
		}
	}
	f.k.RunFor(50 * unit)
	if len(c.core.here) != n || refreshes == 0 {
		t.Fatalf("with %d objects present: %d detections, %d refreshes sent", n, len(c.core.here), refreshes)
	}
	for _, ev := range evs {
		if err := ev.MoveTo(out); err != nil {
			t.Fatal(err)
		}
	}
	f.k.RunFor(period)
	refreshes = 0
	f.k.RunFor(50 * unit)
	if len(c.core.here) != 0 || refreshes != 0 {
		t.Fatalf("after every object left: %d detections kept, %d refreshes sent", len(c.core.here), refreshes)
	}
	for i := range evs {
		if c.ObjectHere(ObjectID(i + 1)) {
			t.Errorf("ObjectHere(%d) still true after the object left", i+1)
		}
	}
}

// A client re-detects the objects present where its GPS puts it in
// ascending id order, not in the order of a map: a client added where five
// objects sit sends their grows in one order on every run.
func TestRedetectionRunsInObjectOrder(t *testing.T) {
	const (
		at   = geo.RegionID(5)
		runs = 30
	)
	orders := make(map[string]int)
	for run := 0; run < runs; run++ {
		tr := trace.New(16)
		f := newFixture(t, fixtureConfig{side: 4, start: 0, alwaysUp: true, netOptions: []Option{WithTracer(tr)}})
		for obj := ObjectID(1); obj <= 5; obj++ {
			f.net.AttachObject(obj, func() geo.RegionID { return at })
		}
		var order string
		tr.Attach(func(e trace.Event) {
			if e.Kind == "send" && e.Msg == KindGrow && e.From == -1 {
				order += fmt.Sprintf(" %d", e.Obj)
			}
		})
		if _, err := f.net.AddClient(vsa.ClientID(100), at); err != nil {
			t.Fatal(err)
		}
		orders[order]++
	}
	if want := " 1 2 3 4 5"; len(orders) != 1 || orders[want] != runs {
		t.Errorf("re-detection grows over %d runs: %v, want %q every run", runs, orders, want)
	}
}
