package cgcast

import (
	"fmt"
	"math/rand"
	"reflect"
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
	if err := f.svc.ClusterToClientsIndexed(c0, kindOf(f.svc, "found"), Body{Payload: 7}); err != nil {
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
	if err := f.svc.ClusterToClientsIndexed(c1, kindOf(f.svc, "found"), Body{}); err == nil {
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
// the kind table, and the handler is handed a Delivery the service holds.
// A box per message, a closure per hop or a concatenated kind name shows
// here.
func TestClusterToClusterAllocatesNothing(t *testing.T) {
	for _, batched := range []bool{false, true} {
		f := setup(t, 8, 2)
		for u := 0; u < f.tiling.NumRegions(); u++ {
			f.layer.RegisterVSA(geo.RegionID(u), nopVSA{})
		}
		svc := f.svc
		if batched {
			svc = batchedService(t, f)
		}
		from := f.h.Cluster(f.tiling.RegionAt(0, 0), 1)
		to := f.h.Cluster(f.tiling.RegionAt(7, 7), 1)
		grow := kindOf(svc, "grow")
		round := func() {
			for obj := int32(0); obj < 4; obj++ {
				if err := svc.ClusterToClusterIndexed(f.h.Head(from), from, to, grow, &Body{Obj: obj}); err != nil {
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

// kindOf interns kind for the indexed sends; a refusal is a test bug.
func kindOf(svc *Service, kind string) KindIndex {
	k, err := svc.InternKind(kind)
	if err != nil {
		panic(err)
	}
	return k
}

// batchedService assembles a batching service over the fixture's stack.
func batchedService(t *testing.T, f *fixture) *Service {
	t.Helper()
	vb := vbcast.New(f.k, f.layer, delta, lagE, f.ledger)
	gc := geocast.New(f.k, f.layer, f.h.Graph(), vb, f.ledger)
	svc, err := New(f.h, f.layer, gc, vb, hier.MeasureGeometry(f.h), f.ledger, WithBatching())
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// In steady state a client broadcast costs no allocation from send to
// delivery either: the envelope carrying it, with its Delivery and its
// arrival thunk, is recycled, and the handler is handed a pointer into it.
// A box or a closure per broadcast shows here.
func TestClientToClusterAllocatesNothing(t *testing.T) {
	for _, batched := range []bool{false, true} {
		f := setup(t, 8, 2)
		for u := 0; u < f.tiling.NumRegions(); u++ {
			f.layer.RegisterVSA(geo.RegionID(u), nopVSA{})
		}
		svc := f.svc
		if batched {
			svc = batchedService(t, f)
		}
		u := f.tiling.RegionAt(3, 3)
		targets := [2]hier.ClusterID{f.h.Cluster(u, 0), f.h.Cluster(f.tiling.RegionAt(4, 3), 0)}
		grow := kindOf(svc, "grow")
		round := func() {
			for obj := int32(0); obj < 4; obj++ {
				if err := svc.ClientToClusterIndexed(vsa.ClientID(u), targets[obj%2], grow, Body{Obj: obj}); err != nil {
					t.Fatal(err)
				}
			}
			f.k.Run()
		}
		round() // warm-up: envelope free list, kind table
		sent := f.ledger.Messages("transport/client")
		if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
			t.Errorf("batched=%v: a round of 4 delivered client broadcasts allocates %v times", batched, allocs)
		}
		if got := f.ledger.Delivered("transport/client"); got != f.ledger.Messages("transport/client") || got <= sent {
			t.Errorf("batched=%v: %d of %d client broadcasts delivered", batched, got, f.ledger.Messages("transport/client"))
		}
	}
}

// A refused client send or found broadcast records nothing: every way to be
// refused returns an error and leaves the ledger as it was, so a kind's
// sent count never runs ahead of its deliveries and drops.
func TestRefusedClientSendsRecordNothing(t *testing.T) {
	f := setup(t, 4, 2)
	// Warm the kinds up, so a refused send would land in rows that exist.
	if err := f.svc.ClientToCluster(0, f.h.Cluster(0, 0), "grow", nil); err != nil {
		t.Fatal(err)
	}
	if err := f.svc.ClusterToClientsIndexed(f.h.Cluster(0, 0), kindOf(f.svc, "found"), Body{}); err != nil {
		t.Fatal(err)
	}
	f.k.Run()
	far := f.tiling.RegionAt(3, 3)
	dead := f.tiling.RegionAt(2, 2)
	moveAway(t, f, dead)
	f.layer.FailClient(vsa.ClientID(f.tiling.RegionAt(1, 0)))
	refused := []struct {
		name string
		send func() error
	}{
		{"client to a level-1 cluster", func() error {
			return f.svc.ClientToClusterIndexed(0, f.h.Cluster(0, 1), kindOf(f.svc, "grow"), Body{})
		}},
		{"client that is dead", func() error {
			return f.svc.ClientToClusterIndexed(vsa.ClientID(f.tiling.RegionAt(1, 0)), f.h.Cluster(0, 0), kindOf(f.svc, "grow"), Body{})
		}},
		{"client to an out-of-range level-0 cluster", func() error {
			return f.svc.ClientToClusterIndexed(0, f.h.Cluster(far, 0), kindOf(f.svc, "grow"), Body{})
		}},
		{"found from a level-1 cluster", func() error {
			return f.svc.ClusterToClientsIndexed(f.h.Cluster(0, 1), kindOf(f.svc, "found"), Body{})
		}},
		{"found from a dead head", func() error {
			return f.svc.ClusterToClientsIndexed(f.h.Cluster(dead, 0), kindOf(f.svc, "found"), Body{})
		}},
	}
	for _, r := range refused {
		before := f.ledger.Snapshot()
		if err := r.send(); err == nil {
			t.Errorf("%s: accepted", r.name)
		}
		if after := f.ledger.Snapshot(); !reflect.DeepEqual(before, after) {
			t.Errorf("%s: refused, but the ledger changed:\nbefore %v\nafter  %v", r.name, before, after)
		}
	}
	if pending := f.k.Pending(); pending != 0 {
		t.Errorf("refused sends left %d kernel events", pending)
	}
}

// A client envelope is released exactly once: a second release, or its
// arrival event firing after the release, is a lifetime bug and panics.
func TestClientEnvelopeReuseAfterReleasePanics(t *testing.T) {
	f := setup(t, 4, 2)
	if err := f.svc.ClientToCluster(5, f.h.Cluster(5, 0), "find", nil); err != nil {
		t.Fatal(err)
	}
	f.k.Run()
	if len(f.svc.envs) != 1 {
		t.Fatalf("%d envelopes in the free list after one resolved broadcast, want 1", len(f.svc.envs))
	}
	env := f.svc.envs[0]
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		fn()
	}
	mustPanic("a second release", func() { f.svc.releaseEnv(env) })
	mustPanic("an arrival on a released envelope", env.arrive)
}

// batchKey names one coalescing bucket of the reference model: all cluster
// messages sent one instant from src to dst with the same delivery time.
type batchKey struct {
	src, dst geo.RegionID
	due      sim.Time
}

// The open-frame lists against the table they replaced, a map from bucket
// to frame: over random same-instant sequences of sends and flushes, every
// send rides the frame the map would have put it in, a flushed frame
// carries exactly the messages the map's frame would have, and as many
// frames go on the wire. A send after its bucket's flush, at the same
// instant, opens a second frame.
func TestOpenFramesMatchMapModel(t *testing.T) {
	type modelFrame struct {
		key  batchKey
		objs []int32
	}
	for seed := int64(1); seed <= 12; seed++ {
		f := setup(t, 4, 2)
		for u := 0; u < f.tiling.NumRegions(); u++ {
			f.layer.RegisterVSA(geo.RegionID(u), nopVSA{})
		}
		svc := batchedService(t, f)
		kind, err := svc.InternKind("m")
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))

		pending := map[batchKey]*modelFrame{}
		var flushes []*modelFrame // the model's flush events, in schedule order
		implOf := map[*modelFrame]*frame{}
		modelFrames, next := 0, int32(0)

		openFor := func(k batchKey) *frame {
			for _, o := range svc.open[k.src] {
				if o.dst == k.dst && o.due == k.due {
					return o.f
				}
			}
			return nil
		}
		openCount := func() int {
			n := 0
			for _, l := range svc.open {
				n += len(l)
			}
			return n
		}
		send := func(k batchKey) {
			next++
			*svc.enqueue(k.src, k.dst, k.due).push() = entry{body: Body{Obj: next}, kind: kind}
			mf := pending[k]
			impl := openFor(k)
			if impl == nil {
				t.Fatalf("seed %d: message %d to %v rides no open frame", seed, next, k)
			}
			if mf == nil {
				mf = &modelFrame{key: k}
				pending[k] = mf
				flushes = append(flushes, mf)
				modelFrames++
				for other, f := range implOf {
					if f == impl && pending[other.key] == other {
						t.Fatalf("seed %d: bucket %v joined the frame of open bucket %v", seed, k, other.key)
					}
				}
				implOf[mf] = impl
			} else if implOf[mf] != impl {
				t.Fatalf("seed %d: message %d to %v rides another frame than its bucket's", seed, next, k)
			}
			mf.objs = append(mf.objs, next)
		}
		flush := func() {
			mf := flushes[0]
			flushes = flushes[1:]
			delete(pending, mf.key)
			impl := implOf[mf]
			var got []int32
			for _, seg := range impl.segs {
				for _, e := range seg {
					got = append(got, e.body.Obj)
				}
			}
			if !reflect.DeepEqual(got, mf.objs) {
				t.Fatalf("seed %d: bucket %v flushes messages %v, the model %v", seed, mf.key, got, mf.objs)
			}
			if !f.k.Step() {
				t.Fatalf("seed %d: no flush event for bucket %v", seed, mf.key)
			}
			if openFor(mf.key) == impl {
				t.Fatalf("seed %d: bucket %v still open after its flush", seed, mf.key)
			}
		}

		for round := 0; round < 6; round++ {
			now := f.k.Now()
			randKey := func() batchKey {
				return batchKey{
					src: geo.RegionID(rng.Intn(3)),
					dst: geo.RegionID(rng.Intn(4) * 5),
					due: now + unit*sim.Time(1+rng.Intn(3)),
				}
			}
			// A send after its bucket's flush, at the same instant.
			k := randKey()
			send(k)
			flush()
			send(k)
			for op := 0; op < 300; op++ {
				if len(flushes) > 0 && rng.Intn(5) == 0 {
					flush()
				} else {
					send(randKey())
				}
				if openCount() != len(pending) {
					t.Fatalf("seed %d: %d frames open, the model %d", seed, openCount(), len(pending))
				}
			}
			for len(flushes) > 0 {
				flush()
			}
			f.k.Run()
		}
		if got := f.ledger.Messages(FrameKind); got != int64(modelFrames) {
			t.Errorf("seed %d: %d frames on the wire, the model %d", seed, got, modelFrames)
		}
		if got, want := f.ledger.Delivered("proto/m"), int64(next); got != want {
			t.Errorf("seed %d: %d messages delivered, %d sent", seed, got, want)
		}
	}
}

// A message carries its kind as a one-byte index into the kind table, so
// the table holds 256 kinds: a 257th would wrap onto another kind's
// "proto/" row. Every string entry point refuses it instead, and records
// nothing; an index the table does not hold is refused the same way.
func TestKindTableHolds256Kinds(t *testing.T) {
	f := setup(t, 4, 2)
	c := f.h.Cluster(0, 0)
	nb := f.h.Nbrs(c)[0]
	if err := f.svc.ClusterToClusterIndexed(f.h.Head(c), c, nb, 0, &Body{}); err == nil {
		t.Error("an index into the empty kind table accepted")
	}
	for i := 0; i < 256; i++ {
		if err := f.svc.ClusterToCluster(c, nb, fmt.Sprintf("k%d", i), nil); err != nil {
			t.Fatalf("kind %d of 256 refused: %v", i, err)
		}
	}
	f.k.Run()
	for i := 0; i < 256; i++ {
		kind := fmt.Sprintf("proto/k%d", i)
		if sent, got := f.ledger.Messages(kind), f.ledger.Delivered(kind); sent != 1 || got != 1 {
			t.Errorf("%s: %d sent, %d delivered, want 1 and 1", kind, sent, got)
		}
	}
	refused := []struct {
		name string
		send func() error
	}{
		{"cluster to cluster", func() error { return f.svc.ClusterToCluster(c, nb, "k256", nil) }},
		{"client to cluster", func() error { return f.svc.ClientToCluster(0, c, "k256", nil) }},
		{"interning", func() error {
			_, err := f.svc.InternKind("k256")
			return err
		}},
	}
	for _, r := range refused {
		before := f.ledger.Snapshot()
		if err := r.send(); err == nil {
			t.Errorf("%s: the 257th kind accepted", r.name)
		}
		if after := f.ledger.Snapshot(); !reflect.DeepEqual(before, after) {
			t.Errorf("%s: refused, but the ledger changed:\nbefore %v\nafter  %v", r.name, before, after)
		}
	}
	if pending := f.k.Pending(); pending != 0 {
		t.Errorf("refused sends left %d kernel events", pending)
	}
	// The same sends with a kind the full table holds go through.
	if err := f.svc.ClusterToCluster(c, nb, "k0", nil); err != nil {
		t.Errorf("cluster to cluster: a kind in the full table refused: %v", err)
	}
	if err := f.svc.ClientToCluster(0, c, "k0", nil); err != nil {
		t.Errorf("client to cluster: a kind in the full table refused: %v", err)
	}
	if err := f.svc.ClusterToClientsIndexed(c, kindOf(f.svc, "k0"), Body{}); err != nil {
		t.Errorf("found broadcast: a kind in the full table refused: %v", err)
	}
}
