package tracker

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"vinestalk/internal/cgcast"
	"vinestalk/internal/geo"
	"vinestalk/internal/geocast"
	"vinestalk/internal/hier"
	"vinestalk/internal/metrics"
	"vinestalk/internal/nethost"
	"vinestalk/internal/sim"
	"vinestalk/internal/vbcast"
	"vinestalk/internal/vsa"
)

// checkHood checks one process's neighbourhood against the hierarchy: ⊥,
// the cluster, its parent below level MAX, its neighbours in [nbrLo,
// nbrHi), its children after them; every index reads back the cluster it
// was made from, and every other cluster, and ids outside the hierarchy,
// are refused.
func checkHood(t *testing.T, name string, h *hier.Hierarchy, pr *Process) {
	t.Helper()
	id := pr.id
	want := []hier.ClusterID{hier.NoCluster, id}
	if par := h.Parent(id); par != hier.NoCluster {
		want = append(want, par)
	}
	if int(pr.nbrLo) != len(want) {
		t.Fatalf("%s: %v's neighbours start at %d, want %d", name, id, pr.nbrLo, len(want))
	}
	want = append(want, h.Nbrs(id)...)
	if int(pr.nbrHi) != len(want) {
		t.Fatalf("%s: %v's neighbours end at %d, want %d", name, id, pr.nbrHi, len(want))
	}
	want = append(want, h.Children(id)...)
	if !slices.Equal(pr.hood, want) {
		t.Fatalf("%s: %v's neighbourhood is %v, want %v", name, id, pr.hood, want)
	}
	for i := range pr.hood {
		c := pr.cluster(hoodIdx(i))
		if got, ok := pr.index(c); !ok || got != hoodIdx(i) || pr.cluster(got) != c {
			t.Fatalf("%s: %v: index %d names %v, which indexes back to %d (%v)", name, id, i, c, got, ok)
		}
		if pr.isNbr(hoodIdx(i)) != h.AreNbrs(id, c) {
			t.Fatalf("%s: %v: isNbr(%d) = %v for %v", name, id, i, pr.isNbr(hoodIdx(i)), c)
		}
	}
	for c := hier.ClusterID(-2); int(c) <= h.NumClusters(); c++ {
		if slices.Contains(pr.hood, c) {
			continue
		}
		if i, ok := pr.index(c); ok {
			t.Fatalf("%s: %v: cluster %v outside the neighbourhood indexes to %d", name, id, c, i)
		}
	}
}

// Every process of grid (r = 2, 3) and landmark hierarchies up to 32×32 keeps
// its Fig. 2 neighbourhood in role order, each pointer index round-trips,
// and every cluster outside the neighbourhood is refused.
func TestHoodIndexRoundTrips(t *testing.T) {
	largest := 0
	for _, side := range []int{4, 5, 8, 9, 16, 27, 32} {
		tl := geo.MustGridTiling(side, side)
		for _, r := range []int{2, 3} {
			hs := map[string]func() (*hier.Hierarchy, error){
				"grid":     func() (*hier.Hierarchy, error) { return hier.NewGrid(tl, r) },
				"landmark": func() (*hier.Hierarchy, error) { return hier.NewLandmark(tl, r) },
			}
			for kind, build := range hs {
				h, err := build()
				if err != nil {
					t.Fatalf("%s %d×%d r=%d: %v", kind, side, side, r, err)
				}
				if err := checkHoods(h); err != nil {
					t.Fatal(err)
				}
				a := buildAutomaton(automatonConfig{h: h})
				name := fmt.Sprintf("%s %d×%d r=%d", kind, side, side, r)
				for _, pr := range a.procs {
					checkHood(t, name, h, pr)
					largest = max(largest, len(pr.hood))
				}
			}
		}
	}
	t.Logf("largest neighbourhood: %d entries", largest)
}

// A hierarchy with a neighbourhood a one-byte pointer cannot index is
// refused where an automaton would be built: a root over 16×17 level-0
// clusters has 272 children.
func TestHoodTooLargeIsRefused(t *testing.T) {
	tl := geo.MustGridTiling(16, 17)
	level0, level1 := make([]int, tl.NumRegions()), make([]int, tl.NumRegions())
	for u := range level0 {
		level0[u] = u
	}
	h, err := hier.NewFromAssignment(tl, [][]int{level0, level1})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkHoods(h); err == nil || !strings.Contains(err.Error(), "neighbourhood") {
		t.Fatalf("checkHoods = %v, want a neighbourhood error", err)
	}

	k := sim.New(1)
	layer := vsa.NewLayer(k, tl, vsa.WithAlwaysAlive())
	ledger := metrics.NewLedger()
	vb := vbcast.New(k, layer, delta, lagE, ledger)
	gc := geocast.New(k, layer, h.Graph(), vb, ledger)
	geom := hier.MeasureGeometry(h)
	cg, err := cgcast.New(h, layer, gc, vb, geom, ledger)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(cg, geom); err == nil {
		t.Error("New accepted a hierarchy with a 273-cluster neighbourhood")
	}
	if _, err := NewNetHost(h, NetConfig{Geom: geom, Delta: netTestDelta, Unit: netTestUnit}); err == nil {
		t.Error("NewNetHost accepted a hierarchy with a 273-cluster neighbourhood")
	}
}

// outsider returns a cluster outside pr's neighbourhood.
func outsider(t *testing.T, h *hier.Hierarchy, pr *Process) hier.ClusterID {
	t.Helper()
	for c := hier.ClusterID(0); int(c) < h.NumClusters(); c++ {
		if _, ok := pr.index(c); !ok {
			return c
		}
	}
	t.Fatalf("every cluster is in %v's neighbourhood", pr.id)
	return hier.NoCluster
}

// A region encoding naming a pointer outside its process's neighbourhood
// is rejected, whichever of the four pointers it is, and the region's
// state is left as it was.
func TestDecodeRegionRefusesPointerOutsideNeighbourhood(t *testing.T) {
	fx := newFixture(t, fixtureConfig{side: 4, start: 5, alwaysUp: true})
	fx.settle()
	aut := fx.net.Automaton()
	const region = geo.RegionID(5)
	enc := aut.EncodeRegion(region)
	// The first hosted level is 0, and the evader's leaf holds a row.
	if binary.BigEndian.Uint16(enc[4:]) != 0 || binary.BigEndian.Uint32(enc[6:]) == 0 {
		t.Fatalf("region %v encodes no level-0 row: %x", region, enc)
	}
	far := outsider(t, fx.h, aut.processAt(region, 0))
	for field, name := range []string{"c", "p", "nbrptup", "nbrptdown"} {
		bad := bytes.Clone(enc)
		binary.BigEndian.PutUint32(bad[14+4*field:], uint32(far))
		err := aut.DecodeRegion(region, bad)
		if err == nil || !strings.Contains(err.Error(), "neighbourhood") {
			t.Fatalf("%s = %v outside the neighbourhood: decode error %v", name, far, err)
		}
		if got := aut.EncodeRegion(region); !bytes.Equal(got, enc) {
			t.Fatalf("rejected %s = %v changed the region's state:\n was %x\n now %x", name, far, enc, got)
		}
	}
}

// pointerKinds are the deliveries that name their sender in a pointer.
var pointerKinds = []string{KindGrow, KindGrowNbr, KindGrowPar, KindShrink, KindShrinkUpd, KindRefresh}

// On the oracle host, a delivery naming its sender in a pointer is ignored
// when the sender is outside the process's neighbourhood: an on-path row and
// a process without a row are left as they were, with no timer armed. The
// same grow from a child is taken.
func TestGrowFromOutsideNeighbourhoodIsIgnored(t *testing.T) {
	fx := newFixture(t, fixtureConfig{side: 8, start: 9, heartbeat: 8 * unit, tRestart: unit})
	fx.k.RunFor(100 * unit)
	aut := fx.net.Automaton()
	onPath := fx.net.Process(fx.h.Cluster(fx.ev.Region(), 1))
	offPath := fx.net.Process(fx.h.Cluster(fx.tiling.RegionAt(7, 7), 1))
	if onPath.LiveObjects() != 1 || offPath.LiveObjects() != 0 {
		t.Fatalf("on-path process holds %d rows, off-path %d", onPath.LiveObjects(), offPath.LiveObjects())
	}
	for _, pr := range []*Process{onPath, offPath} {
		far := outsider(t, fx.h, pr)
		before := aut.EncodeRegion(pr.region)
		armed := aut.armedMove
		for _, kind := range pointerKinds {
			aut.Deliver(pr.region, pr.level, &cgcast.Delivery{Kind: kind, From: far, Body: bodyFor(DefaultObject)})
			if got := aut.EncodeRegion(pr.region); !bytes.Equal(got, before) || aut.armedMove != armed {
				t.Fatalf("%s from %v outside %v's neighbourhood changed its state", kind, far, pr.id)
			}
		}
	}
	child := fx.h.Children(offPath.id)[0]
	aut.Deliver(offPath.region, offPath.level, &cgcast.Delivery{Kind: KindGrow, From: child, Body: bodyFor(DefaultObject)})
	if c, _, _, _ := offPath.Pointers(); c != child {
		t.Fatalf("a grow from child %v left c = %v", child, c)
	}
}

// On the networked host, a grow frame injected on the transport from a
// cluster outside the addressed process's neighbourhood leaves its pointers
// as they were; the same frame from a child sets c.
func TestNetHostIgnoresGrowFromOutsideNeighbourhood(t *testing.T) {
	h := hier.MustGrid(geo.MustGridTiling(4, 4), 2)
	geom := hier.MeasureGeometry(h)
	nh, err := NewNetHost(h, NetConfig{Geom: geom, Delta: netTestDelta, Unit: netTestUnit})
	if err != nil {
		t.Fatal(err)
	}
	tr := nethost.NewChanTransport()
	svc, err := nethost.New(nh, nethost.Config{NumRegions: h.Tiling().NumRegions(), Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	nh.Attach(svc)
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Stop)

	const obj = ObjectID(1)
	const settle = 40 * netTestUnit
	if err := nh.PlaceObject(obj, 0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(settle)

	// A level-1 cluster off the object's path, and a cluster outside its
	// neighbourhood.
	target := h.Cluster(15, 1)
	if target == h.Cluster(0, 1) {
		t.Fatal("regions 0 and 15 share a level-1 cluster")
	}
	var pr *Process
	done := make(chan struct{})
	if err := svc.Inject(h.Head(target), func(n *nethost.Node) {
		pr = n.Automaton().(*Automaton).procs[target]
		close(done)
	}); err != nil {
		t.Fatal(err)
	}
	<-done
	far := outsider(t, h, pr)
	inject := func(from hier.ClusterID) {
		t.Helper()
		payload, err := EncodeClusterMsg(from, h.Head(from), h.Level(target), obj, KindGrow, nil)
		if err != nil {
			t.Fatal(err)
		}
		// The frame header: u32 dest | i64 due | u16 kind length | kind.
		to := h.Head(target)
		frame := binary.BigEndian.AppendUint32(nil, uint32(to))
		frame = binary.BigEndian.AppendUint64(frame, uint64(svc.Now()))
		frame = binary.BigEndian.AppendUint16(frame, uint16(len(KindGrow)))
		frame = append(append(frame, KindGrow...), payload...)
		if err := tr.Send(to, frame); err != nil {
			t.Fatal(err)
		}
		time.Sleep(settle)
	}
	pointers := func() [4]hier.ClusterID {
		t.Helper()
		c, p, up, down, err := nh.ClusterPointersFor(target, obj)
		if err != nil {
			t.Fatal(err)
		}
		return [4]hier.ClusterID{c, p, up, down}
	}

	before := pointers()
	inject(far)
	if after := pointers(); after != before {
		t.Fatalf("a grow from %v outside %v's neighbourhood moved its pointers %v → %v", far, target, before, after)
	}
	child := h.Children(target)[0]
	inject(child)
	if after := pointers(); after[0] != child {
		t.Fatalf("a grow from child %v left %v's pointers at %v", child, target, after)
	}
}
