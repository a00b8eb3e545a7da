package cgcast

import (
	"testing"
	"testing/quick"
	"time"

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

type recClient struct{ msgs []Delivery }

func (c *recClient) GPSUpdate(geo.RegionID) {}
func (c *recClient) Receive(msg any) {
	if d, ok := msg.(*Delivery); ok {
		c.msgs = append(c.msgs, *d)
	}
}

type recVSA struct {
	msgs   []Delivery
	levels []int
	times  []sim.Time
	k      *sim.Kernel
}

func (v *recVSA) Receive(level int, msg any) {
	if d, ok := msg.(*Delivery); ok {
		v.msgs = append(v.msgs, *d) // the pointer is only good for this call
		v.levels = append(v.levels, level)
		v.times = append(v.times, v.k.Now())
	}
}
func (v *recVSA) Reset() { v.msgs, v.levels, v.times = nil, nil, nil }

type fixture struct {
	k       *sim.Kernel
	tiling  *geo.GridTiling
	h       *hier.Hierarchy
	layer   *vsa.Layer
	svc     *Service
	ledger  *metrics.Ledger
	vsas    []*recVSA
	clients []*recClient
}

func setup(t *testing.T, side, r int) *fixture {
	t.Helper()
	k := sim.New(11)
	tiling := geo.MustGridTiling(side, side)
	h := hier.MustGrid(tiling, r)
	layer := vsa.NewLayer(k, tiling)
	f := &fixture{k: k, tiling: tiling, h: h, layer: layer, ledger: metrics.NewLedger()}
	f.vsas = make([]*recVSA, tiling.NumRegions())
	f.clients = make([]*recClient, tiling.NumRegions())
	for u := 0; u < tiling.NumRegions(); u++ {
		f.vsas[u] = &recVSA{k: k}
		layer.RegisterVSA(geo.RegionID(u), f.vsas[u])
		f.clients[u] = &recClient{}
		if err := layer.AddClient(vsa.ClientID(u), geo.RegionID(u), f.clients[u]); err != nil {
			t.Fatal(err)
		}
	}
	layer.StartAllAlive()
	vb := vbcast.New(k, layer, delta, lagE, f.ledger)
	gc := geocast.New(k, layer, h.Graph(), vb, f.ledger)
	svc, err := New(h, layer, gc, vb, hier.MeasureGeometry(h), f.ledger)
	if err != nil {
		t.Fatal(err)
	}
	f.svc = svc
	return f
}

func TestScheduleDelayCases(t *testing.T) {
	f := setup(t, 8, 2)
	h := f.h
	geom := hier.MeasureGeometry(h)

	// Pick a level-1 cluster and relatives.
	c := h.Cluster(f.tiling.RegionAt(2, 2), 1)
	l := h.Level(c)
	par := h.Parent(c)
	child := h.Children(c)[0]
	nbr := h.Nbrs(c)[0]

	if got, want := f.svc.ScheduleDelay(c, c), sim.Time(0); got != want {
		t.Errorf("self delay = %v, want %v", got, want)
	}
	if got, want := f.svc.ScheduleDelay(c, nbr), unit*sim.Time(geom.N[l]); got != want {
		t.Errorf("nbr delay = %v, want %v", got, want)
	}
	if got, want := f.svc.ScheduleDelay(c, par), unit*sim.Time(geom.P[l]); got != want {
		t.Errorf("parent delay = %v, want %v", got, want)
	}
	if got, want := f.svc.ScheduleDelay(c, child), unit*sim.Time(geom.P[h.Level(child)]); got != want {
		t.Errorf("child delay = %v, want %v", got, want)
	}

	// Neighbor-of-neighbor: find one that is not itself a neighbor.
	var non hier.ClusterID = hier.NoCluster
	for _, n1 := range h.Nbrs(c) {
		for _, n2 := range h.Nbrs(n1) {
			if n2 != c && !h.AreNbrs(c, n2) {
				non = n2
				break
			}
		}
		if non != hier.NoCluster {
			break
		}
	}
	if non == hier.NoCluster {
		t.Fatal("no neighbor-of-neighbor found in fixture")
	}
	if got, want := f.svc.ScheduleDelay(c, non), unit*sim.Time(2*geom.N[l]); got != want {
		t.Errorf("nbr-of-nbr delay = %v, want %v", got, want)
	}

	// Fallback (unrelated cluster at another level): distance-based.
	far := h.Cluster(f.tiling.RegionAt(7, 7), 0)
	d := h.Graph().Distance(h.Head(c), h.Head(far))
	if got, want := f.svc.ScheduleDelay(c, far), unit*sim.Time(d); got != want {
		t.Errorf("fallback delay = %v, want %v", got, want)
	}
}

func TestClusterToClusterDeliveredOnSchedule(t *testing.T) {
	f := setup(t, 8, 2)
	h := f.h
	c := h.Cluster(f.tiling.RegionAt(0, 0), 1)
	par := h.Parent(c)
	want := f.k.Now() + f.svc.ScheduleDelay(c, par)
	if err := f.svc.ClusterToCluster(c, par, "grow", 42); err != nil {
		t.Fatal(err)
	}
	f.k.Run()
	head := h.Head(par)
	v := f.vsas[head]
	if len(v.msgs) != 1 {
		t.Fatalf("parent head received %d messages, want 1", len(v.msgs))
	}
	if v.times[0] != want {
		t.Errorf("delivered at %v, want exactly %v", v.times[0], want)
	}
	if v.levels[0] != h.Level(par) {
		t.Errorf("delivered at level %d, want %d", v.levels[0], h.Level(par))
	}
	d := v.msgs[0]
	if d.Kind != "grow" || d.Payload != 42 || d.From != c || d.FromRegion != h.Head(c) {
		t.Errorf("delivery = %+v", d)
	}
}

func TestClusterToClusterInvalidRoute(t *testing.T) {
	f := setup(t, 4, 2)
	if err := f.svc.ClusterToCluster(hier.NoCluster, 0, "x", nil); err == nil {
		t.Error("send from NoCluster accepted")
	}
	if err := f.svc.ClusterToCluster(0, hier.NoCluster, "x", nil); err == nil {
		t.Error("send to NoCluster accepted")
	}
}

func TestClusterToClusterDroppedWhenHeadFails(t *testing.T) {
	f := setup(t, 4, 2)
	h := f.h
	c := h.Cluster(f.tiling.RegionAt(0, 0), 0)
	par := h.Parent(c)
	head := h.Head(par)
	if err := f.svc.ClusterToCluster(c, par, "grow", nil); err != nil {
		t.Fatal(err)
	}
	// Kill the destination head's VSA before the schedule elapses.
	f.k.RunFor(unit / 2)
	moveAway(t, f, head)
	f.k.Run()
	if len(f.vsas[head].msgs) != 0 {
		t.Fatal("message delivered to failed head VSA")
	}
}

// moveAway empties region u of clients so its VSA fails.
func moveAway(t *testing.T, f *fixture, u geo.RegionID) {
	t.Helper()
	dest := f.tiling.Neighbors(u)[0]
	for _, id := range f.layer.ClientsIn(u) {
		if err := f.layer.MoveClient(id, dest); err != nil {
			t.Fatal(err)
		}
	}
}

func TestClientToCluster(t *testing.T) {
	f := setup(t, 4, 2)
	c0 := f.h.Cluster(5, 0)
	if err := f.svc.ClientToCluster(5, c0, "find", "payload"); err != nil {
		t.Fatal(err)
	}
	f.k.RunUntil(delta - time.Millisecond)
	if len(f.vsas[5].msgs) != 0 {
		t.Fatal("delivered before δ")
	}
	f.k.Run()
	v := f.vsas[5]
	if len(v.msgs) != 1 || v.msgs[0].Kind != "find" || v.msgs[0].From != hier.NoCluster || v.msgs[0].FromRegion != 5 {
		t.Fatalf("delivery = %+v", v.msgs)
	}
	if v.times[0] != delta {
		t.Errorf("delivered at %v, want δ = %v", v.times[0], delta)
	}
	// Level restriction.
	c1 := f.h.Cluster(5, 1)
	if err := f.svc.ClientToCluster(5, c1, "find", nil); err == nil {
		t.Error("client send to level-1 cluster accepted")
	}
	// Dead client.
	f.layer.FailClient(5)
	if err := f.svc.ClientToCluster(5, c0, "find", nil); err == nil {
		t.Error("send from dead client accepted")
	}
}

func TestClusterToClients(t *testing.T) {
	f := setup(t, 3, 2)
	center := f.tiling.RegionAt(1, 1)
	c0 := f.h.Cluster(center, 0)
	if err := f.svc.ClusterToClients(c0, "found", Body{Payload: 7}); err != nil {
		t.Fatal(err)
	}
	f.k.Run()
	// Every client (center + its 8 neighbors = whole 3x3 grid) receives it.
	for u, c := range f.clients {
		if len(c.msgs) != 1 {
			t.Errorf("client r%d received %d messages, want 1", u, len(c.msgs))
			continue
		}
		if c.msgs[0].Kind != "found" || c.msgs[0].From != c0 {
			t.Errorf("client r%d delivery = %+v", u, c.msgs[0])
		}
	}
	// Level restriction.
	c1 := f.h.Cluster(center, 1)
	if err := f.svc.ClusterToClients(c1, "found", Body{}); err == nil {
		t.Error("broadcast from level-1 cluster accepted")
	}
}

func TestLedgerProtocolAccounting(t *testing.T) {
	f := setup(t, 8, 2)
	h := f.h
	c := h.Cluster(f.tiling.RegionAt(0, 0), 1)
	par := h.Parent(c)
	if err := f.svc.ClusterToCluster(c, par, "grow", nil); err != nil {
		t.Fatal(err)
	}
	f.k.Run()
	if got := f.ledger.Messages("proto/grow"); got != 1 {
		t.Errorf("proto/grow messages = %d, want 1", got)
	}
	wantWork := int64(h.Graph().Distance(h.Head(c), h.Head(par)))
	if got := f.ledger.Work("proto/grow"); got != wantWork {
		t.Errorf("proto/grow work = %d, want %d", got, wantWork)
	}
}

func TestNewRejectsShortGeometry(t *testing.T) {
	f := setup(t, 8, 2)
	short := hier.GridFormulas(2, 0)
	vb := vbcast.New(f.k, f.layer, delta, lagE, nil)
	gc := geocast.New(f.k, f.layer, f.h.Graph(), vb, nil)
	if _, err := New(f.h, f.layer, gc, vb, short, nil); err == nil {
		t.Fatal("New accepted geometry with too few levels")
	}
}

func TestUnitAndAccessors(t *testing.T) {
	f := setup(t, 4, 2)
	if f.svc.Unit() != unit {
		t.Errorf("Unit = %v, want %v", f.svc.Unit(), unit)
	}
	if f.svc.Hierarchy() != f.h || f.svc.Layer() != f.layer || f.svc.Kernel() != f.k {
		t.Error("accessors do not round-trip")
	}
}

// Property: the paper's delivery schedule always covers the actual
// transit time — ScheduleDelay(from, to) is at least (δ+e) times the
// head-to-head hop distance. This is the invariant that makes the
// "hold until the scheduled time" implementation sound (a message can
// never be due before it arrives).
func TestScheduleCoversTransitQuick(t *testing.T) {
	f := setup(t, 8, 2)
	h := f.h
	gr := h.Graph()
	checkPair := func(from, to hier.ClusterID) bool {
		if from == to {
			return true
		}
		delay := f.svc.ScheduleDelay(from, to)
		transit := unit * sim.Time(gr.Distance(h.Head(from), h.Head(to)))
		return delay >= transit
	}
	quickFn := func(a, b uint16) bool {
		from := hier.ClusterID(int(a) % h.NumClusters())
		to := hier.ClusterID(int(b) % h.NumClusters())
		return checkPair(from, to)
	}
	if err := quick.Check(quickFn, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
	// Exhaustively over the relationships the protocol actually uses.
	for c := 0; c < h.NumClusters(); c++ {
		id := hier.ClusterID(c)
		if par := h.Parent(id); par != hier.NoCluster {
			if !checkPair(id, par) || !checkPair(par, id) {
				t.Fatalf("schedule does not cover parent transit for %v", id)
			}
		}
		for _, nb := range h.Nbrs(id) {
			if !checkPair(id, nb) {
				t.Fatalf("schedule does not cover neighbor transit for %v -> %v", id, nb)
			}
		}
	}
}

type nopVSA struct{}

func (nopVSA) Receive(int, any) {}
func (nopVSA) Reset()           {}

// In steady state a cluster message costs no allocation from send to
// delivery, unbatched (one frame per message) or batched (several messages
// of one instant riding one frame): the frame, its entry slice, the geocast
// route under it and every thunk are recycled, the proto kind comes out of
// the kind table, and the handler is handed a pointer into the frame. A box
// per message, a closure per hop or a concatenated kind name shows here.
func TestClusterToClusterAllocatesNothing(t *testing.T) {
	for _, batched := range []bool{false, true} {
		f := setup(t, 8, 2)
		for u := 0; u < f.tiling.NumRegions(); u++ {
			f.layer.RegisterVSA(geo.RegionID(u), nopVSA{})
		}
		svc := f.svc
		if batched {
			var err error
			vb := vbcast.New(f.k, f.layer, delta, lagE, f.ledger)
			gc := geocast.New(f.k, f.layer, f.h.Graph(), vb, f.ledger)
			if svc, err = New(f.h, f.layer, gc, vb, hier.MeasureGeometry(f.h), f.ledger, WithBatching()); err != nil {
				t.Fatal(err)
			}
		}
		from := f.h.Cluster(f.tiling.RegionAt(0, 0), 1)
		to := f.h.Cluster(f.tiling.RegionAt(7, 7), 1)
		round := func() {
			for obj := int32(0); obj < 4; obj++ {
				if err := svc.ClusterToClusterFrom(f.h.Head(from), from, to, "grow", Body{Obj: obj}); err != nil {
					t.Fatal(err)
				}
			}
			f.k.Run()
		}
		round() // warm-up: free lists, kind table, routing BFS
		sent := f.ledger.Messages("proto/grow")
		if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
			t.Errorf("batched=%v: a round of 4 delivered messages allocates %v times", batched, allocs)
		}
		if got := f.ledger.Delivered("proto/grow"); got != f.ledger.Messages("proto/grow") || got <= sent {
			t.Errorf("batched=%v: %d of %d messages delivered", batched, got, f.ledger.Messages("proto/grow"))
		}
	}
}
