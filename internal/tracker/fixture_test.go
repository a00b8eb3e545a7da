package tracker

import (
	"testing"
	"time"

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

const (
	delta = 10 * time.Millisecond
	lagE  = 5 * time.Millisecond
	unit  = delta + lagE
)

// fixture assembles the full stack: grid tiling, hierarchy, VSA layer,
// V-bcast, geocast, C-gcast, tracker network, one stationary client per
// region, and the evader.
type fixture struct {
	t      testing.TB
	k      *sim.Kernel
	tiling *geo.GridTiling
	h      *hier.Hierarchy
	layer  *vsa.Layer
	gc     *geocast.Service
	ledger *metrics.Ledger
	net    *Network
	ev     *evader.Evader
	founds []FindResult
}

type fixtureConfig struct {
	side       int
	r          int
	start      geo.RegionID
	alwaysUp   bool
	heartbeat  sim.Time
	tRestart   sim.Time
	netOptions []Option
	cgOptions  []cgcast.Option
}

func newFixture(t testing.TB, cfg fixtureConfig) *fixture {
	t.Helper()
	if cfg.r == 0 {
		cfg.r = 2
	}
	f := &fixture{t: t, k: sim.New(42)}
	f.tiling = geo.MustGridTiling(cfg.side, cfg.side)
	f.h = hier.MustGrid(f.tiling, cfg.r)
	var layerOpts []vsa.Option
	if cfg.alwaysUp {
		layerOpts = append(layerOpts, vsa.WithAlwaysAlive())
	}
	if cfg.tRestart > 0 {
		layerOpts = append(layerOpts, vsa.WithTRestart(cfg.tRestart))
	}
	f.layer = vsa.NewLayer(f.k, f.tiling, layerOpts...)
	f.ledger = metrics.NewLedger()
	vb := vbcast.New(f.k, f.layer, delta, lagE, f.ledger)
	f.gc = geocast.New(f.k, f.layer, f.h.Graph(), vb, f.ledger)
	geom := hier.MeasureGeometry(f.h)
	cg, err := cgcast.New(f.h, f.layer, f.gc, vb, geom, f.ledger, cfg.cgOptions...)
	if err != nil {
		t.Fatal(err)
	}
	opts := append([]Option{WithFoundCallback(func(r FindResult) {
		f.founds = append(f.founds, r)
	})}, cfg.netOptions...)
	if cfg.heartbeat > 0 {
		opts = append(opts, WithHeartbeat(cfg.heartbeat))
	}
	net, err := New(cg, geom, opts...)
	if err != nil {
		t.Fatal(err)
	}
	f.net = net
	if err := net.AddStationaryClients(); err != nil {
		t.Fatal(err)
	}
	f.layer.StartAllAlive()
	ev, err := evader.New(f.tiling, cfg.start, net.Sink())
	if err != nil {
		t.Fatal(err)
	}
	f.ev = ev
	net.AttachEvader(ev.Region)
	return f
}

// settle runs the kernel until the event queue drains (heartbeat-free
// fixtures) with a livelock guard.
func (f *fixture) settle() {
	f.t.Helper()
	if _, err := f.k.RunLimited(2_000_000); err != nil {
		f.t.Fatalf("simulation did not settle: %v", err)
	}
	if !f.net.MoveQuiescent() {
		f.t.Fatal("event queue drained but network not move-quiescent")
	}
}

// trackingPath walks c pointers from the root to the evader's level-0
// cluster, failing the test if the walk dead-ends or cycles.
func (f *fixture) trackingPath() []hier.ClusterID {
	f.t.Helper()
	var path []hier.ClusterID
	seen := make(map[hier.ClusterID]bool)
	cur := f.h.Root()
	for {
		if seen[cur] {
			f.t.Fatalf("tracking path cycles at %v (path %v)", cur, path)
		}
		seen[cur] = true
		path = append(path, cur)
		c, _, _, _ := f.net.Process(cur).Pointers()
		if c == cur {
			return path
		}
		if c == hier.NoCluster {
			f.t.Fatalf("tracking path dead-ends at %v (path %v)", cur, path)
		}
		cur = c
	}
}

// assertTracksEvader checks the tracking path terminates at the evader's
// region and that off-path processes are clean.
func (f *fixture) assertTracksEvader() {
	f.t.Helper()
	path := f.trackingPath()
	leaf := path[len(path)-1]
	if want := f.h.Cluster(f.ev.Region(), 0); leaf != want {
		f.t.Fatalf("tracking path ends at %v, want evader's level-0 cluster %v", leaf, want)
	}
	onPath := make(map[hier.ClusterID]bool, len(path))
	for _, c := range path {
		onPath[c] = true
	}
	for id := 0; id < f.h.NumClusters(); id++ {
		c, p, _, _ := f.net.Process(hier.ClusterID(id)).Pointers()
		if onPath[hier.ClusterID(id)] {
			continue
		}
		if c != hier.NoCluster || p != hier.NoCluster {
			f.t.Errorf("off-path process %v has c=%v p=%v, want ⊥/⊥", hier.ClusterID(id), c, p)
		}
	}
}

// withState lets a test edit obj's state vector at pr the way one input
// action would: fn gets the row (or the initial state, if the process holds
// none), and the result is kept or evicted by the quiescence rule.
func withState(pr *Process, obj ObjectID, fn func(*objState)) {
	var scratch objState
	st, held := pr.enter(obj, &scratch)
	fn(st)
	pr.leave(st, held)
}
