package tracker

import (
	"reflect"
	"testing"
	"time"

	"vinestalk/internal/geo"
	"vinestalk/internal/hier"
	"vinestalk/internal/nethost"
)

// A move naming a region outside the tiling is refused before anything is
// written: no objAt repoint, no left input at the origin (which would shrink
// the path and strand the object), no frame charged — and the next find is
// answered where the object still is.
func TestNetHostRejectedMoveLeavesObjectTracked(t *testing.T) {
	const (
		side  = 4
		obj   = ObjectID(1)
		at    = geo.RegionID(5)
		delta = 10 * time.Millisecond
		unit  = 15 * time.Millisecond
	)
	h := hier.MustGrid(geo.MustGridTiling(side, side), 2)
	founds := make(chan FindResult, 1)
	nh, err := NewNetHost(h, NetConfig{
		Geom: hier.MeasureGeometry(h), Delta: delta, Unit: unit,
		OnFound: func(r FindResult) { founds <- r },
	})
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
	defer svc.Stop()

	// No heartbeat, so the ledger rests once a cascade has settled; 4×4
	// settles within 20 units.
	const settle = 40 * unit
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
	if err := svc.Inject(at, func(n *nethost.Node) { here <- regionState(n).here[obj] }); err != nil {
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
