package tracker

import (
	"math"
	"reflect"
	"testing"
	"time"

	"vinestalk/internal/geo"
	"vinestalk/internal/hier"
	"vinestalk/internal/nethost"
)

// δ and δ+e of the in-package NetHost tests: a 4×4 cascade settles within
// 20 units.
const (
	netTestDelta = 10 * time.Millisecond
	netTestUnit  = 15 * time.Millisecond
)

// startNetHost boots a NetHost on a 4×4 grid over the in-process transport
// and stops it with the test. cfg supplies Heartbeat and OnFound.
func startNetHost(t *testing.T, cfg NetConfig) (*NetHost, *nethost.Service) {
	t.Helper()
	h := hier.MustGrid(geo.MustGridTiling(4, 4), 2)
	cfg.Geom, cfg.Delta, cfg.Unit = hier.MeasureGeometry(h), netTestDelta, netTestUnit
	nh, err := NewNetHost(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := nethost.New(nh, nethost.Config{NumRegions: h.Tiling().NumRegions()})
	if err != nil {
		t.Fatal(err)
	}
	nh.Attach(svc)
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Stop)
	return nh, svc
}

// A move naming a region outside the tiling is refused before anything is
// written: no objAt repoint, no left input at the origin (which would shrink
// the path and strand the object), no frame charged — and the next find is
// answered where the object still is.
func TestNetHostRejectedMoveLeavesObjectTracked(t *testing.T) {
	const (
		obj = ObjectID(1)
		at  = geo.RegionID(5)
	)
	founds := make(chan FindResult, 1)
	nh, svc := startNetHost(t, NetConfig{OnFound: func(r FindResult) { founds <- r }})

	// No heartbeat, so the ledger rests once a cascade has settled; 4×4
	// settles within 20 units.
	const settle = 40 * netTestUnit
	if err := nh.PlaceObject(obj, at); err != nil {
		t.Fatal(err)
	}
	time.Sleep(settle)
	before := svc.LedgerSnapshot()

	for _, mv := range [][2]geo.RegionID{{at, 9999}, {9999, at + 1}, {-7, at + 1}, {geo.NoRegion, -7}} {
		if err := nh.MoveObject(obj, mv[0], mv[1]); err == nil {
			t.Errorf("MoveObject(%v → %v) accepted", mv[0], mv[1])
		}
	}

	nh.mu.Lock()
	got, ok := nh.objAt[obj]
	nh.mu.Unlock()
	if !ok || got != at {
		t.Errorf("objAt[%d] = %v (present %v) after rejected moves, want %v", obj, got, ok, at)
	}
	here := make(chan bool, 1)
	if err := svc.Inject(at, func(n *nethost.Node) { here <- nh.region(n).client.detects(obj) }); err != nil {
		t.Fatal(err)
	}
	if !<-here {
		t.Errorf("region %v no longer detects object %d after rejected moves", at, obj)
	}
	time.Sleep(settle)
	if after := svc.LedgerSnapshot(); !reflect.DeepEqual(before, after) {
		t.Errorf("rejected moves charged the ledger:\nbefore %+v\nafter  %+v", before, after)
	}

	id, err := nh.FindObject(0, obj)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-founds:
		if r.ID != id || r.FoundAt != at {
			t.Errorf("found %+v, want find %d answered at region %v", r, id, at)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("find %d unanswered 2s after rejected moves (object stranded)", id)
	}
}

// However often an object is placed at a region, or leaves it and returns,
// the region's client runs one §VII heartbeat loop for it: the refresh rate
// after five placements, and after four round trips inside one period,
// is the single-placement rate, not a multiple of it. A tick costs one net/refresh frame per
// process on the tracking path (client → leaf, then each process to its path
// parent), so frames ÷ path length counts ticks whatever shape the path has.
func TestNetHostOneRefreshLoopPerDetection(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time heartbeat windows (~8s)")
	}
	const (
		obj    = ObjectID(1)
		at     = geo.RegionID(5)
		away   = geo.RegionID(4)
		settle = 30 * netTestUnit
	)
	ticksOver := func(t *testing.T, nh *NetHost, svc *nethost.Service, window time.Duration) float64 {
		t.Helper()
		time.Sleep(settle)
		pathLen := 0
		for c := nh.h.Cluster(at, 0); c != hier.NoCluster && pathLen <= nh.h.NumClusters(); pathLen++ {
			_, p, _, _, err := nh.ClusterPointersFor(c, obj)
			if err != nil {
				t.Fatal(err)
			}
			c = p
		}
		before := svc.LedgerSnapshot()
		time.Sleep(window)
		frames := svc.LedgerSnapshot().Sub(before).MsgCount["net/"+KindRefresh]
		return float64(frames) / float64(pathLen)
	}
	// A second loop doubles the rate and a dead one zeroes it; a loaded
	// machine stretches a 60 ms period by a few tens of percent from one
	// window to the next (each tick re-arms from when it ran).
	sameRate := func(t *testing.T, what string, got, single float64) {
		t.Helper()
		if math.Abs(got-single) > math.Max(1, single/2) {
			t.Errorf("%s: %.1f heartbeat ticks per window, single placement %.1f (one loop per detection: within a tick, or half the rate)", what, got, single)
		}
	}

	t.Run("placements", func(t *testing.T) {
		const period = 60 * time.Millisecond
		nh, svc := startNetHost(t, NetConfig{Heartbeat: period})
		if err := nh.PlaceObject(obj, at); err != nil {
			t.Fatal(err)
		}
		single := ticksOver(t, nh, svc, 10*period)
		for i := 0; i < 4; i++ {
			if err := nh.PlaceObject(obj, at); err != nil {
				t.Fatal(err)
			}
		}
		sameRate(t, "after five placements", ticksOver(t, nh, svc, 10*period), single)
	})

	t.Run("round trips", func(t *testing.T) {
		// Eight legs 100 ms apart end inside one period of the first return,
		// so every loop a return started ticks with the object back here.
		const period = 900 * time.Millisecond
		nh, svc := startNetHost(t, NetConfig{Heartbeat: period})
		if err := nh.PlaceObject(obj, at); err != nil {
			t.Fatal(err)
		}
		single := ticksOver(t, nh, svc, 2*period)
		for i := 0; i < 4; i++ {
			for _, leg := range [][2]geo.RegionID{{at, away}, {away, at}} {
				if err := nh.MoveObject(obj, leg[0], leg[1]); err != nil {
					t.Fatal(err)
				}
				time.Sleep(100 * time.Millisecond)
			}
		}
		sameRate(t, "after four round trips", ticksOver(t, nh, svc, 2*period), single)
	})
}

// The find registry holds outstanding finds only: a
// found frame for an id nobody issued — any peer of the data port can send
// one — is ignored and retains nothing, and an answered find leaves no entry.
func TestNetHostFindRegistryHoldsOnlyOutstandingFinds(t *testing.T) {
	const (
		obj    = ObjectID(1)
		at     = geo.RegionID(5)
		forged = FindID(424242)
		finds  = 1000
	)
	founds := make(chan FindResult, finds)
	nh, svc := startNetHost(t, NetConfig{OnFound: func(r FindResult) { founds <- r }})
	if err := nh.PlaceObject(obj, at); err != nil {
		t.Fatal(err)
	}
	time.Sleep(40 * netTestUnit)
	outstanding := func() int {
		nh.mu.Lock()
		defer nh.mu.Unlock()
		return len(nh.finds.open)
	}

	c0 := nh.h.Cluster(at, 0)
	payload, err := EncodeClusterMsg(c0, at, 0, obj, KindFound, []FindPayload{{ID: forged, Origin: 0}})
	if err != nil {
		t.Fatal(err)
	}
	delivered := make(chan struct{})
	if err := svc.Inject(at, func(n *nethost.Node) {
		nh.DeliverFrame(n, KindFound, payload)
		close(delivered)
	}); err != nil {
		t.Fatal(err)
	}
	<-delivered
	select {
	case r := <-founds:
		t.Errorf("OnFound(%+v) for a find nobody issued", r)
	default:
	}
	if nh.FindDone(forged) {
		t.Errorf("FindDone(%d) for a find nobody issued", forged)
	}
	if n := outstanding(); n != 0 {
		t.Errorf("%d registry entries after a forged found, want 0", n)
	}

	issued := make(map[FindID]bool, finds)
	for i := 0; i < finds; i++ {
		id, err := nh.FindObject(geo.RegionID(i%nh.h.Tiling().NumRegions()), obj)
		if err != nil {
			t.Fatal(err)
		}
		issued[id] = true
	}
	for deadline := time.After(20 * time.Second); len(issued) > 0; {
		select {
		case r := <-founds:
			if !issued[r.ID] || r.FoundAt != at {
				t.Fatalf("found %+v: not an outstanding find answered at region %v", r, at)
			}
			delete(issued, r.ID)
			if !nh.FindDone(r.ID) {
				t.Errorf("FindDone(%d) false after its found", r.ID)
			}
		case <-deadline:
			t.Fatalf("%d of %d finds unanswered after 20s", len(issued), finds)
		}
	}
	if n := outstanding(); n != 0 {
		t.Errorf("%d registry entries after %d answered finds, want 0", n, finds)
	}
}

// The host knows where each object is, so the left input of a move goes
// there: a move naming another origin is refused before anything changes,
// and placing an object that is already placed (a teleport) sends the left
// input to the region it was at. Either way one level-0 process tracks the
// object once the cascade has settled, not one at each region that detected
// it (a level-0 process whose c points at itself).
func TestNetHostMoveLeavesFromWhereTheObjectIs(t *testing.T) {
	const (
		obj    = ObjectID(1)
		settle = 40 * netTestUnit
	)
	nh, _ := startNetHost(t, NetConfig{})
	leaves := func() []geo.RegionID {
		var out []geo.RegionID
		for u := geo.RegionID(0); int(u) < nh.h.Tiling().NumRegions(); u++ {
			c0 := nh.h.Cluster(u, 0)
			c, _, _, _, err := nh.ClusterPointersFor(c0, obj)
			if err != nil {
				t.Fatal(err)
			}
			if c == c0 { // a detection, not a lateral link through u
				out = append(out, u)
			}
		}
		return out
	}
	expect := func(what string, want geo.RegionID) {
		t.Helper()
		time.Sleep(settle)
		if got := leaves(); !reflect.DeepEqual(got, []geo.RegionID{want}) {
			t.Errorf("%s: level-0 processes tracking the object at %v, want only %v", what, got, want)
		}
	}
	if err := nh.MoveObject(obj, 3, 5); err == nil {
		t.Error("a move of an object no input placed, from region 3, was accepted")
	}
	if err := nh.PlaceObject(obj, 5); err != nil {
		t.Fatal(err)
	}
	if err := nh.MoveObject(obj, 9, 10); err == nil {
		t.Error("a move from region 9 of an object at 5 was accepted")
	}
	expect("after a move from the wrong region", 5)
	if err := nh.PlaceObject(obj, 10); err != nil {
		t.Fatal(err)
	}
	expect("after a teleport from 5 to 10", 10)
	if err := nh.MoveObject(obj, 10, 11); err != nil {
		t.Fatal(err)
	}
	expect("after a move from 10 to 11", 11)
}
