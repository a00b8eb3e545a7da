package tracker

import (
	"testing"

	"vinestalk/internal/cgcast"
	"vinestalk/internal/evader"
	"vinestalk/internal/geo"
	"vinestalk/internal/geocast"
	"vinestalk/internal/hier"
	"vinestalk/internal/metrics"
	"vinestalk/internal/sim"
	"vinestalk/internal/vbcast"
	"vinestalk/internal/vsa"
)

// The §VII quorum extension ("multiple heads per cluster... this
// quorum-like approach should result in only an additional constant
// factor overhead, but would allow for the failure of limited sets of
// VSAs"): every cluster message goes to both heads, a warm-standby
// replica mirrors each multi-member cluster's process, and it speaks for
// the cluster while the primary head's VSA is down.

func newReplicatedFixture(t *testing.T, side int, start geo.RegionID, alwaysUp bool, opts ...Option) *fixture {
	t.Helper()
	f := &fixture{t: t, k: sim.New(42)}
	f.tiling = geo.MustGridTiling(side, side)
	f.h = hier.MustGrid(f.tiling, 2)
	var layerOpts []vsa.Option
	if alwaysUp {
		layerOpts = append(layerOpts, vsa.WithAlwaysAlive())
	} else {
		layerOpts = append(layerOpts, vsa.WithTRestart(unit))
	}
	f.layer = vsa.NewLayer(f.k, f.tiling, layerOpts...)
	f.ledger = metrics.NewLedger()
	vb := vbcast.New(f.k, f.layer, delta, lagE, f.ledger)
	gc := geocast.New(f.k, f.layer, f.h.Graph(), vb, f.ledger)
	geom := hier.MeasureGeometry(f.h)
	cg, err := cgcast.New(f.h, f.layer, gc, vb, geom, f.ledger, cgcast.WithReplication())
	if err != nil {
		t.Fatal(err)
	}
	net, err := New(cg, geom, append([]Option{
		WithHeadReplication(),
		WithFoundCallback(func(r FindResult) { f.founds = append(f.founds, r) })}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	f.net = net
	if err := net.AddStationaryClients(); err != nil {
		t.Fatal(err)
	}
	f.layer.StartAllAlive()
	ev, err := evader.New(f.tiling, start, net.Sink())
	if err != nil {
		t.Fatal(err)
	}
	f.ev = ev
	net.AttachEvader(ev.Region)
	return f
}

func TestReplicationMismatchRejected(t *testing.T) {
	k := sim.New(1)
	tiling := geo.MustGridTiling(4, 4)
	h := hier.MustGrid(tiling, 2)
	layer := vsa.NewLayer(k, tiling, vsa.WithAlwaysAlive())
	vb := vbcast.New(k, layer, delta, lagE, nil)
	gc := geocast.New(k, layer, h.Graph(), vb, nil)
	geom := hier.MeasureGeometry(h)
	cgPlain, err := cgcast.New(h, layer, gc, vb, geom, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(cgPlain, geom, WithHeadReplication()); err == nil {
		t.Fatal("network with replication accepted a non-replicated C-gcast")
	}
}

func TestReplicasMirrorPrimaryState(t *testing.T) {
	f := newReplicatedFixture(t, 8, 0, true)
	f.settle()
	f.assertTracksEvader()
	for c := 0; c < f.h.NumClusters(); c++ {
		id := hier.ClusterID(c)
		bk := f.net.BackupProcess(id)
		if f.h.AltHead(id) == geo.NoRegion {
			if bk != nil {
				t.Fatalf("cluster %v has a backup without an alternate head", id)
			}
			continue
		}
		if bk == nil {
			t.Fatalf("cluster %v missing its backup replica", id)
		}
		pc, pp, pup, pdown := f.net.Process(id).Pointers()
		bc, bp, bup, bdown := bk.Pointers()
		if pc != bc || pp != bp || pup != bup || pdown != bdown {
			t.Errorf("cluster %v replica diverged: primary (%v,%v,%v,%v) vs backup (%v,%v,%v,%v)",
				id, pc, pp, pup, pdown, bc, bp, bup, bdown)
		}
	}
}

func TestReplicationConstantFactorOverhead(t *testing.T) {
	work := func(replicated bool) int64 {
		var f *fixture
		if replicated {
			f = newReplicatedFixture(t, 8, 0, true)
		} else {
			f = newFixture(t, fixtureConfig{side: 8, start: 0, alwaysUp: true})
		}
		f.settle()
		for x := 1; x <= 5; x++ {
			if err := f.ev.MoveTo(f.tiling.RegionAt(x, x%2)); err != nil {
				t.Fatal(err)
			}
			f.settle()
		}
		if _, err := f.net.Find(f.tiling.RegionAt(7, 7)); err != nil {
			t.Fatal(err)
		}
		f.settle()
		return f.ledger.TotalWork()
	}
	plain, repl := work(false), work(true)
	if repl <= plain {
		t.Fatalf("replicated work %d not above plain %d", repl, plain)
	}
	if repl > 3*plain {
		t.Fatalf("replicated work %d exceeds the promised constant factor (plain %d)", repl, plain)
	}
}

func TestReplicaTakesOverWhenPrimaryHeadDies(t *testing.T) {
	f := newReplicatedFixture(t, 8, 9, false)
	f.settle()
	f.assertTracksEvader()

	// Kill the primary head VSA of the evader's level-1 cluster — without
	// replication this breaks finds permanently (see
	// TestFailureWithoutHeartbeatBreaksFinds). Keep it dead.
	lvl1 := f.h.Cluster(f.ev.Region(), 1)
	primary := f.h.Head(lvl1)
	alt := f.h.AltHead(lvl1)
	if alt == geo.NoRegion {
		t.Fatal("fixture cluster has no alternate head")
	}
	refuge := geo.NoRegion
	for _, nb := range f.tiling.Neighbors(primary) {
		if nb != alt {
			refuge = nb
			break
		}
	}
	for _, id := range f.layer.ClientsIn(primary) {
		if err := f.layer.MoveClient(id, refuge); err != nil {
			t.Fatal(err)
		}
	}
	if f.layer.Alive(primary) {
		t.Fatal("primary head VSA still alive")
	}
	if !f.layer.Alive(alt) {
		t.Fatal("alternate head VSA should be alive")
	}

	// Finds keep completing through the backup replica.
	id, err := f.net.Find(f.tiling.RegionAt(7, 7))
	if err != nil {
		t.Fatal(err)
	}
	f.k.RunFor(400 * unit)
	if !f.net.FindDone(id) {
		t.Fatal("find did not complete through the backup replica")
	}

	// Moves keep working too: the backup sends the cluster's grow/shrink
	// traffic while the primary is down.
	if err := f.ev.MoveTo(f.tiling.RegionAt(2, 1)); err != nil {
		t.Fatal(err)
	}
	f.k.RunFor(400 * unit)
	id2, err := f.net.Find(f.tiling.RegionAt(0, 7))
	if err != nil {
		t.Fatal(err)
	}
	f.k.RunFor(400 * unit)
	if !f.net.FindDone(id2) {
		t.Fatal("find after a move did not complete through the backup replica")
	}
}
