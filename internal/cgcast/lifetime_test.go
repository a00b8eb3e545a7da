package cgcast_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"vinestalk/internal/cgcast"
	"vinestalk/internal/chaos"
	"vinestalk/internal/geo"
	"vinestalk/internal/geocast"
	"vinestalk/internal/hier"
	"vinestalk/internal/metrics"
	"vinestalk/internal/sim"
	"vinestalk/internal/vbcast"
	"vinestalk/internal/vsa"
)

type lifetimeClient struct{}

func (lifetimeClient) GPSUpdate(geo.RegionID) {}
func (lifetimeClient) Receive(any)            {}

// lifetimeVSA counts deliveries and, for a message marked as a trigger,
// sends again from inside Receive — at the delivering instant, while the
// frame that carried the trigger is still being iterated.
type lifetimeVSA struct {
	w *lifetimeWorld
	u geo.RegionID
}

func (v lifetimeVSA) Reset() {}
func (v lifetimeVSA) Receive(level int, msg any) {
	d := msg.(*cgcast.Delivery)
	w := v.w
	w.resolved[d.Obj]++
	if d.Arg == 0 {
		return
	}
	// Reply to the sender and fan out to the receiver's neighbours: under
	// batching these open new frames (and join ones other handlers of this
	// instant opened) while this one is live.
	here := w.h.Cluster(v.u, level)
	if here == hier.NoCluster {
		return
	}
	for _, to := range append([]hier.ClusterID{d.From}, w.h.Nbrs(here)...) {
		w.send(v.u, here, to, 0)
	}
}

// lifetimeWorld is one transport stack under a fault plan, with every
// message numbered so each can be checked to resolve exactly once.
type lifetimeWorld struct {
	t        *testing.T
	k        *sim.Kernel
	h        *hier.Hierarchy
	layer    *vsa.Layer
	gc       *geocast.Service
	cg       *cgcast.Service
	next     int32
	copies   map[int32]int // accepted sends: copies expected to resolve
	resolved map[int32]int // deliveries + drops seen

	clientSends, refused int // accepted and refused client broadcasts
}

// kindOf interns kind for the indexed sends; a refusal is a test bug.
func kindOf(svc *cgcast.Service, kind string) cgcast.KindIndex {
	k, err := svc.InternKind(kind)
	if err != nil {
		panic(err)
	}
	return k
}

// send issues one numbered message; trigger != 0 makes its receiver send
// from inside Receive.
func (w *lifetimeWorld) send(src geo.RegionID, from, to hier.ClusterID, trigger int32) {
	w.next++
	id := w.next
	if err := w.cg.ClusterToClusterIndexed(src, from, to, kindOf(w.cg, "probe"), &cgcast.Body{Obj: id, Arg: trigger}); err != nil {
		return // sender's VSA is down: nothing was sent
	}
	w.copies[id] = w.cg.Copies(to)
}

// sendFromClient issues one numbered client broadcast to the level-0
// cluster of region to; a dead client or a target out of its range is
// refused.
func (w *lifetimeWorld) sendFromClient(id vsa.ClientID, to geo.RegionID) {
	w.next++
	n := w.next
	if err := w.cg.ClientToClusterIndexed(id, w.h.Cluster(to, 0), kindOf(w.cg, "client"), cgcast.Body{Obj: n}); err != nil {
		w.refused++
		return
	}
	w.copies[n] = 1
	w.clientSends++
}

// Every frame and every client envelope taken from a free list goes back
// exactly once, and never while a kernel event or a geocast route can still
// reach it — under crash windows, client churn and injected loss, with head
// replication (one message, two target frames), batched and unbatched, with
// handlers that send from inside Receive, and with client broadcasts (some
// refused: a dead client, a target out of range) beside the cluster
// traffic. Double releases and events firing on released envelopes panic
// inside the service; leaks show as allocated != free once the queue
// drains; and each accepted message copy must reach its handler or the drop
// consumer exactly once. (The route records underneath have the same test
// in package geocast.)
func TestEnvelopeLifetimeUnderChaos(t *testing.T) {
	for _, batched := range []bool{false, true} {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("batched=%v/seed=%d", batched, seed), func(t *testing.T) {
				runLifetime(t, seed, batched)
			})
		}
	}
}

func runLifetime(t *testing.T, seed int64, batched bool) {
	const side = 8
	k := sim.New(seed)
	tiling := geo.MustGridTiling(side, side)
	h := hier.MustGrid(tiling, 2)
	layer := vsa.NewLayer(k, tiling, vsa.WithTRestart(20*time.Millisecond))
	w := &lifetimeWorld{t: t, k: k, h: h, layer: layer, copies: map[int32]int{}, resolved: map[int32]int{}}
	for u := 0; u < tiling.NumRegions(); u++ {
		layer.RegisterVSA(geo.RegionID(u), lifetimeVSA{w: w, u: geo.RegionID(u)})
		if err := layer.AddClient(vsa.ClientID(u), geo.RegionID(u), lifetimeClient{}); err != nil {
			t.Fatal(err)
		}
	}
	layer.StartAllAlive()

	plan, err := chaos.NewPlan(chaos.Config{
		Seed:         seed,
		DelayJitter:  true,
		CrashWindows: 6,
		CrashLen:     150 * time.Millisecond,
		ChurnClients: 8,
		ChurnPeriod:  10 * time.Millisecond,
		DropProb:     0.1,
		Horizon:      time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ledger := metrics.NewLedger()
	vb := vbcast.New(k, layer, 10*time.Millisecond, 5*time.Millisecond, ledger)
	vb.SetDelayModel(plan.DelayModel())
	w.gc = geocast.New(k, layer, h.Graph(), vb, ledger)
	w.gc.SetLoss(plan.LossFunc(k))
	opts := []cgcast.Option{cgcast.WithReplication()}
	if batched {
		opts = append(opts, cgcast.WithBatching())
	}
	w.cg, err = cgcast.New(h, layer, w.gc, vb, hier.MeasureGeometry(h), ledger, opts...)
	if err != nil {
		t.Fatal(err)
	}
	w.cg.OnDrop(func(u geo.RegionID, level int, d *cgcast.Delivery) { w.resolved[d.Obj]++ })
	addClient := func(id vsa.ClientID, u geo.RegionID) error {
		return layer.AddClient(id, u, lifetimeClient{})
	}
	if err := plan.Install(k, layer, addClient, 1000); err != nil {
		t.Fatal(err)
	}

	// Traffic: bursts of same-instant sends (so batched frames carry several
	// messages) between random clusters, a third of them triggers, all
	// through the fault horizon.
	rng := rand.New(rand.NewSource(seed * 7919))
	var burst func()
	burst = func() {
		for i := 0; i < 12; i++ {
			from := hier.ClusterID(rng.Intn(h.NumClusters()))
			to := hier.ClusterID(rng.Intn(h.NumClusters()))
			var trigger int32
			if rng.Intn(3) == 0 {
				trigger = 1
			}
			w.send(h.Head(from), from, to, trigger)
		}
		// Client broadcasts: mostly to the client's own region or a
		// neighbour, sometimes to anywhere (refused when out of range), from
		// clients that may have failed (refused).
		for i := 0; i < 6; i++ {
			id := vsa.ClientID(rng.Intn(tiling.NumRegions()))
			to := geo.RegionID(rng.Intn(tiling.NumRegions()))
			if u := layer.ClientRegion(id); u != geo.NoRegion && rng.Intn(4) != 0 {
				nbrs := tiling.Neighbors(u)
				if j := rng.Intn(len(nbrs) + 1); j < len(nbrs) {
					to = nbrs[j]
				} else {
					to = u
				}
			}
			w.sendFromClient(id, to)
		}
		if k.Now() < time.Second {
			k.Schedule(7*time.Millisecond, burst)
		}
	}
	k.At(0, burst)
	if _, err := k.RunLimited(5_000_000); err != nil {
		t.Fatal(err)
	}

	if made, free := w.cg.FramesForTest(); made != free || made == 0 {
		t.Errorf("cgcast frames: %d allocated, %d back in the free list", made, free)
	}
	twoCopies := 0
	for id, want := range w.copies {
		if got := w.resolved[id]; got != want {
			t.Errorf("message %d: %d copies sent, %d resolved", id, want, got)
		}
		if want == 2 {
			twoCopies++
		}
	}
	for id := range w.resolved {
		if _, ok := w.copies[id]; !ok {
			t.Errorf("message %d resolved but its send was refused", id)
		}
	}
	snap := ledger.Snapshot()
	var dropped int64
	for _, v := range snap.Drops["proto/probe"] {
		dropped += v
	}
	if sent := snap.MsgCount["proto/probe"]; sent != snap.Delivered["proto/probe"]+dropped {
		t.Errorf("proto/probe: sent %d != delivered %d + dropped %d", sent, snap.Delivered["proto/probe"], dropped)
	}
	if dropped == 0 || twoCopies == 0 || len(w.copies) < 1000 {
		t.Errorf("run too quiet to mean anything: %d messages, %d replicated, %d drops", len(w.copies), twoCopies, dropped)
	}

	// Client broadcasts resolve at V-bcast: each accepted one is charged
	// once under its kinds and ends as one delivery or one named drop; a
	// refused one is charged nothing.
	if made, free := w.cg.EnvelopesForTest(); made != free || made == 0 {
		t.Errorf("cgcast client envelopes: %d allocated, %d back in the free list", made, free)
	}
	const kind = "transport/client"
	var clientDrops int64
	for _, v := range snap.Drops[kind] {
		clientDrops += v
	}
	if sent := snap.MsgCount[kind]; sent != int64(w.clientSends) || sent != snap.Delivered[kind]+clientDrops {
		t.Errorf("%s: %d accepted, sent %d, delivered %d + dropped %d", kind, w.clientSends, sent, snap.Delivered[kind], clientDrops)
	}
	if got := snap.MsgCount["proto/client"]; got != int64(w.clientSends) {
		t.Errorf("proto/client: charged %d, %d accepted", got, w.clientSends)
	}
	if clientDrops == 0 || w.refused == 0 || w.clientSends < 300 {
		t.Errorf("client traffic too quiet to mean anything: %d accepted, %d refused, %d dropped", w.clientSends, w.refused, clientDrops)
	}
}
