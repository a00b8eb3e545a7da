package geocast

import (
	"testing"
	"time"

	"vinestalk/internal/geo"
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

type nopClient struct{}

func (nopClient) GPSUpdate(geo.RegionID) {}
func (nopClient) Receive(any)            {}

type nopVSA struct{}

func (nopVSA) Receive(int, any) {}
func (nopVSA) Reset()           {}

func setup(t testing.TB, w, h int) (*sim.Kernel, *vsa.Layer, *Service, *metrics.Ledger) {
	t.Helper()
	k := sim.New(3)
	tiling := geo.MustGridTiling(w, h)
	layer := vsa.NewLayer(k, tiling)
	for u := 0; u < tiling.NumRegions(); u++ {
		layer.RegisterVSA(geo.RegionID(u), nopVSA{})
		if err := layer.AddClient(vsa.ClientID(u), geo.RegionID(u), nopClient{}); err != nil {
			t.Fatal(err)
		}
	}
	layer.StartAllAlive()
	ledger := metrics.NewLedger()
	vb := vbcast.New(k, layer, delta, lagE, ledger)
	graph := geo.NewGraph(tiling)
	return k, layer, New(k, layer, graph, vb, ledger), ledger
}

func TestSendAcrossGrid(t *testing.T) {
	k, _, svc, ledger := setup(t, 5, 5)
	g := geo.MustGridTiling(5, 5)
	from, to := g.RegionAt(0, 0), g.RegionAt(4, 4)
	var arrivedAt sim.Time = -1
	if err := svc.Send(from, to, func() { arrivedAt = k.Now() }); err != nil {
		t.Fatal(err)
	}
	k.Run()
	want := 4 * unit // 4 hops along the diagonal
	if arrivedAt != want {
		t.Fatalf("arrived at %v, want %v", arrivedAt, want)
	}
	if got := ledger.Work("transport/geocast"); got != 4 {
		t.Errorf("geocast work = %d, want 4", got)
	}
	if got := ledger.Messages("transport/hop"); got != 4 {
		t.Errorf("hop messages = %d, want 4", got)
	}
}

func TestSendSelfArrivesImmediately(t *testing.T) {
	k, _, svc, _ := setup(t, 3, 3)
	arrived := false
	if err := svc.Send(4, 4, func() { arrived = true }); err != nil {
		t.Fatal(err)
	}
	if !arrived {
		t.Fatal("self-send not immediate")
	}
	_ = k
}

func TestSendValidation(t *testing.T) {
	_, layer, svc, _ := setup(t, 3, 3)
	if err := svc.Send(geo.RegionID(99), 0, func() {}); err == nil {
		t.Error("send from outside tiling accepted")
	}
	if err := svc.Send(0, geo.RegionID(99), func() {}); err == nil {
		t.Error("send to outside tiling accepted")
	}
	if err := layer.MoveClient(0, 1); err != nil { // kill r0's VSA
		t.Fatal(err)
	}
	if err := svc.Send(0, 8, func() {}); err == nil {
		t.Error("send from dead VSA accepted")
	}
}

func TestSendReroutesAroundDeadVSA(t *testing.T) {
	k, layer, svc, _ := setup(t, 3, 1)
	// Line r0-r1-r2; kill r1 (middle) by moving its client away: the only
	// route is through r1, so the message must be dropped.
	if err := layer.MoveClient(1, 0); err != nil {
		t.Fatal(err)
	}
	arrived := false
	if err := svc.Send(0, 2, func() { arrived = true }); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if arrived {
		t.Fatal("message crossed a dead cut vertex")
	}

	// On a 3x3 grid there is a way around a dead center.
	k2, layer2, svc2, _ := setupGrid3x3(t)
	if err := layer2.MoveClient(4, 0); err != nil { // kill center VSA
		t.Fatal(err)
	}
	arrived2At := sim.Time(-1)
	g := geo.MustGridTiling(3, 3)
	if err := svc2.Send(g.RegionAt(0, 1), g.RegionAt(2, 1), func() { arrived2At = k2.Now() }); err != nil {
		t.Fatal(err)
	}
	k2.Run()
	if arrived2At < 0 {
		t.Fatal("message not rerouted around dead center")
	}
	if arrived2At != 2*unit {
		t.Fatalf("rerouted arrival at %v, want %v (2 hops around)", arrived2At, 2*unit)
	}
}

func setupGrid3x3(t *testing.T) (*sim.Kernel, *vsa.Layer, *Service, *metrics.Ledger) {
	t.Helper()
	return setup(t, 3, 3)
}

func TestSendDroppedWhenDestDiesInFlight(t *testing.T) {
	k, layer, svc, _ := setup(t, 4, 1)
	arrived := false
	if err := svc.Send(0, 3, func() { arrived = true }); err != nil {
		t.Fatal(err)
	}
	k.RunFor(unit)                                 // message now at r1
	if err := layer.MoveClient(3, 2); err != nil { // kill r3
		t.Fatal(err)
	}
	k.Run()
	if arrived {
		t.Fatal("arrived at dead destination")
	}
}

// setup4 is setup on a 4-neighbor (von Neumann) grid, where detours around
// a dead region are strictly longer than the static shortest path.
func setup4(t *testing.T, w, h int) (*sim.Kernel, *vsa.Layer, *Service, *metrics.Ledger, *geo.GridTiling) {
	t.Helper()
	k := sim.New(3)
	tiling, err := geo.NewGridTiling4(w, h)
	if err != nil {
		t.Fatal(err)
	}
	layer := vsa.NewLayer(k, tiling)
	for u := 0; u < tiling.NumRegions(); u++ {
		layer.RegisterVSA(geo.RegionID(u), nopVSA{})
		if err := layer.AddClient(vsa.ClientID(u), geo.RegionID(u), nopClient{}); err != nil {
			t.Fatal(err)
		}
	}
	layer.StartAllAlive()
	ledger := metrics.NewLedger()
	vb := vbcast.New(k, layer, delta, lagE, ledger)
	return k, layer, New(k, layer, geo.NewGraph(tiling), vb, ledger), ledger, tiling
}

// Killing a VSA on the static shortest path makes the message detour; the
// ledger must charge the detour's actual length, not the static distance
// computed at send time.
func TestSendChargesDetourLength(t *testing.T) {
	k, layer, svc, ledger, g := setup4(t, 3, 3)
	center := g.RegionAt(1, 1)
	if err := layer.MoveClient(vsa.ClientID(center), g.RegionAt(1, 0)); err != nil {
		t.Fatal(err)
	}
	from, to := g.RegionAt(0, 1), g.RegionAt(2, 1)
	if got := svc.Graph().Distance(from, to); got != 2 {
		t.Fatalf("static distance = %d, want 2 (through the center)", got)
	}
	arrivedAt := sim.Time(-1)
	if err := svc.Send(from, to, func() { arrivedAt = k.Now() }); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if arrivedAt != 4*unit {
		t.Fatalf("arrived at %v, want %v (4-hop detour)", arrivedAt, 4*unit)
	}
	if got := ledger.Work("transport/geocast"); got != 4 {
		t.Errorf("geocast work = %d, want 4 (the detour's length)", got)
	}
	if got := ledger.Messages("transport/geocast"); got != 1 {
		t.Errorf("geocast messages = %d, want 1", got)
	}
}

// When no live route exists the message is silently dropped (no panic) and
// the ledger charges only the hops the message actually traveled.
func TestSendNoLiveRouteDropsWithConsistentLedger(t *testing.T) {
	// Drop at the source: line r0-r1-r2 with the middle dead — zero hops
	// traveled, zero hop-work, still one message.
	k, layer, svc, ledger := setup(t, 3, 1)
	if err := layer.MoveClient(1, 0); err != nil {
		t.Fatal(err)
	}
	arrived := false
	if err := svc.Send(0, 2, func() { arrived = true }); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if arrived {
		t.Fatal("message crossed a dead cut vertex")
	}
	if got := ledger.Work("transport/geocast"); got != 0 {
		t.Errorf("work for source-dropped message = %d, want 0", got)
	}
	if got := ledger.Messages("transport/geocast"); got != 1 {
		t.Errorf("messages = %d, want 1", got)
	}

	// Drop mid-route: line r0-r1-r2-r3, r2 dies while the message is on its
	// first hop — one hop traveled before the drop, so hop-work is 1.
	k2, layer2, svc2, ledger2 := setup(t, 4, 1)
	if err := svc2.Send(0, 3, func() { t.Error("dropped message arrived") }); err != nil {
		t.Fatal(err)
	}
	k2.RunFor(unit / 2)
	if err := layer2.MoveClient(2, 1); err != nil { // r2's VSA dies
		t.Fatal(err)
	}
	k2.Run()
	if got := ledger2.Work("transport/geocast"); got != 1 {
		t.Errorf("work for mid-route drop = %d, want 1 (one hop traveled)", got)
	}
	if got := ledger2.Messages("transport/geocast"); got != 1 {
		t.Errorf("messages = %d, want 1", got)
	}
}

// Injected per-hop loss drops the message at the lossy hop and charges no
// work for the hop that never happened.
func TestSendInjectedLoss(t *testing.T) {
	k, _, svc, ledger := setup(t, 4, 1)
	svc.SetLoss(func(cur, next geo.RegionID) bool { return cur == 1 })
	arrived := false
	if err := svc.Send(0, 3, func() { arrived = true }); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if arrived {
		t.Fatal("message survived injected loss")
	}
	if got := ledger.Work("transport/geocast"); got != 1 {
		t.Errorf("work = %d, want 1 (only the pre-loss hop)", got)
	}
}

func TestSendManyIndependentMessages(t *testing.T) {
	k, _, svc, _ := setup(t, 4, 4)
	arrivals := 0
	g := geo.MustGridTiling(4, 4)
	for u := 0; u < g.NumRegions(); u++ {
		if err := svc.Send(geo.RegionID(u), g.RegionAt(3, 3), func() { arrivals++ }); err != nil {
			t.Fatal(err)
		}
	}
	k.Run()
	if arrivals != g.NumRegions() {
		t.Fatalf("arrivals = %d, want %d", arrivals, g.NumRegions())
	}
}

// recReceiver records how a routed message resolved.
type recReceiver struct {
	arrived int
	causes  []metrics.DropCause
}

func (r *recReceiver) Arrived()                        { r.arrived++ }
func (r *recReceiver) Dropped(cause metrics.DropCause) { r.causes = append(r.causes, cause) }

// Every geocast send must resolve to exactly one delivery or one attributed
// drop, and Route must surface the cause to the receiver.
func TestSendTrackedDropAttribution(t *testing.T) {
	// No-route drop.
	k, layer, svc, ledger := setup(t, 3, 1)
	if err := layer.MoveClient(1, 0); err != nil {
		t.Fatal(err)
	}
	var rcv recReceiver
	if err := svc.Route(0, 2, &rcv); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if rcv.arrived != 0 || len(rcv.causes) != 1 || rcv.causes[0] != metrics.DropNoRoute {
		t.Errorf("resolved as %d arrivals, drops %q; want one no-route drop", rcv.arrived, rcv.causes)
	}
	if got := ledger.Drops("transport/geocast", metrics.DropNoRoute); got != 1 {
		t.Errorf("ledger no-route drops = %d, want 1", got)
	}

	// Loss drop.
	k2, _, svc2, ledger2 := setup(t, 4, 1)
	svc2.SetLoss(func(cur, next geo.RegionID) bool { return cur == 1 })
	rcv = recReceiver{}
	if err := svc2.Route(0, 3, &rcv); err != nil {
		t.Fatal(err)
	}
	k2.Run()
	if rcv.arrived != 0 || len(rcv.causes) != 1 || rcv.causes[0] != metrics.DropLoss {
		t.Errorf("resolved as %d arrivals, drops %q; want one loss drop", rcv.arrived, rcv.causes)
	}
	if got := ledger2.Drops("transport/geocast", metrics.DropLoss); got != 1 {
		t.Errorf("ledger loss drops = %d, want 1", got)
	}
}

// Geocast conservation: across deliveries, dead routes, loss, and mid-route
// deaths, sent == delivered + dropped once the queue drains.
func TestSendConservation(t *testing.T) {
	k, layer, svc, ledger := setup(t, 4, 4)
	g := geo.MustGridTiling(4, 4)
	delivered := 0
	for u := 0; u < g.NumRegions(); u++ {
		if err := svc.Send(geo.RegionID(u), g.RegionAt(3, 3), func() { delivered++ }); err != nil {
			t.Fatal(err)
		}
	}
	k.RunFor(unit / 2)
	// Two relay VSAs die with messages in flight.
	if err := layer.MoveClient(5, 4); err != nil {
		t.Fatal(err)
	}
	if err := layer.MoveClient(10, 9); err != nil {
		t.Fatal(err)
	}
	k.Run()

	sent := ledger.Messages("transport/geocast")
	del := ledger.Delivered("transport/geocast")
	var dropped int64
	for _, n := range ledger.Snapshot().DropsByCause("transport/geocast") {
		dropped += n
	}
	if int64(delivered) != del {
		t.Errorf("callback deliveries %d != ledger deliveries %d", delivered, del)
	}
	if sent != del+dropped {
		t.Errorf("sent %d != delivered %d + dropped %d", sent, del, dropped)
	}
	// Same conservation at the hop transport underneath.
	hopSent := ledger.Messages("transport/hop")
	hopDel := ledger.Delivered("transport/hop")
	var hopDropped int64
	for _, n := range ledger.Snapshot().DropsByCause("transport/hop") {
		hopDropped += n
	}
	if hopSent != hopDel+hopDropped {
		t.Errorf("hops: sent %d != delivered %d + dropped %d", hopSent, hopDel, hopDropped)
	}
}

// In steady state a routed message allocates nothing however many hops it
// takes — the route record and its hop thunk are recycled, the ledger is an
// indexed add — and Send adds at most the closure its caller hands it.
func TestRouteHopsAllocateNothing(t *testing.T) {
	k, _, svc, ledger := setup(t, 8, 1)
	var rcv recReceiver
	route := func() {
		if err := svc.Route(0, 7, &rcv); err != nil {
			t.Fatal(err)
		}
		k.Run()
	}
	route() // warm-up: the record, the kernel arena, the routing BFS
	if allocs := testing.AllocsPerRun(100, route); allocs != 0 {
		t.Errorf("a 7-hop Route allocates %v times", allocs)
	}
	arrived := 0
	if allocs := testing.AllocsPerRun(100, func() {
		if err := svc.Send(0, 7, func() { arrived++ }); err != nil {
			t.Fatal(err)
		}
		k.Run()
	}); allocs > 1 {
		t.Errorf("a 7-hop Send allocates %v times, want at most the caller's closure", allocs)
	}
	if rcv.arrived != 102 || arrived != 101 || len(rcv.causes) != 0 {
		t.Errorf("arrivals: %d routed, %d sent, drops %q", rcv.arrived, arrived, rcv.causes)
	}
	if got := ledger.Work("transport/geocast"); got != 7*203 {
		t.Errorf("hop work %d, want %d", got, 7*203)
	}
}
