package tracker

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"vinestalk/internal/cgcast"
	"vinestalk/internal/emul"
	"vinestalk/internal/evader"
	"vinestalk/internal/geo"
	"vinestalk/internal/hier"
	"vinestalk/internal/trace"
	"vinestalk/internal/vsa"
)

// transitKey and mapRegistry are an in-transit registry kept as a count per
// (object, kind, sender, addressee): the reference model that the network's
// answers — the enumeration built from C-gcast and the emulated host's
// uncommitted deliveries, and the move-family counter — are checked against.
type transitKey struct {
	obj  ObjectID
	kind string
	from hier.ClusterID
	to   hier.ClusterID
}

type mapRegistry struct {
	inflight     map[transitKey]int
	moveInflight int
}

// add moves key's count by d. The tracer reports a send once C-gcast has
// accepted it, after any copy with no route out of its sender has already
// died, so a count may dip below zero inside a kernel event; between events
// none is negative.
func (m *mapRegistry) add(key transitKey, d int) {
	if m.inflight[key] += d; m.inflight[key] == 0 {
		delete(m.inflight, key)
	}
	if moveFamily(key.kind) {
		m.moveInflight += d
	}
}

func (m *mapRegistry) inTransit() []Transit {
	var out []Transit
	for key, cnt := range m.inflight {
		t := Transit{Obj: key.obj, Kind: key.kind, From: key.from, To: key.to}
		for i := 0; i < cnt; i++ {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Obj != b.Obj {
			return a.Obj < b.Obj
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
	return out
}

func (m *mapRegistry) inTransitFor(obj ObjectID) []Transit {
	all := m.inTransit()
	out := all[:0]
	for _, t := range all {
		if t.Obj == obj {
			out = append(out, t)
		}
	}
	return out
}

// modelFeed feeds a mapRegistry from outside the network it models, with no
// hook in the network: a send or a receipt from the tracer, a drop from a
// wrapper around C-gcast's drop consumer and, on the emulated host, a
// delivery a region accepted from a wrapper around its handler, counted off
// when the tracer reports the region failed or restarted. A key's addressee
// is the cluster of the region and level a copy is addressed to, which a
// cluster's alternate head belongs to as its head does.
type modelFeed struct {
	f       *fixture
	m       *mapRegistry
	pending [][]transitKey // emulated host: accepted by the region, not committed
	objs    map[ObjectID]bool
	// drops counts the copies C-gcast dropped, discards those a failed or
	// restarted emulated region lost.
	drops, discards int
}

// feedModel starts the model of f's network, which must have nothing in
// flight. The tracer must be the network's. On the emulated host, the
// model takes every commit for the receipt of a delivery the region still
// holds: a commit of one accepted before a failure needs tRestart < delta
// (TestStaleCommitIsCountedOnce).
func feedModel(f *fixture, tr *trace.Tracer) *modelFeed {
	n := f.net
	mf := &modelFeed{f: f, m: &mapRegistry{inflight: make(map[transitKey]int)}, objs: make(map[ObjectID]bool)}
	failed, restarted := emul.RegionFailed.String(), emul.RegionRestarted.String()
	tr.Attach(func(e trace.Event) {
		key := transitKey{obj: ObjectID(e.Obj), kind: e.Msg, from: hier.ClusterID(e.From), to: hier.ClusterID(e.To)}
		switch {
		case e.Kind == "send":
			mf.objs[key.obj] = true
			copies := 1
			if key.from != hier.NoCluster {
				copies = n.cg.Copies(key.to)
			}
			mf.m.add(key, copies)
		case e.Kind == "recv":
			if mf.pending != nil {
				u := f.h.Head(key.to)
				i := slices.Index(mf.pending[u], key)
				if i < 0 {
					f.t.Fatalf("at %v: %v committed at region %v, which holds no such delivery", f.k.Now(), key, u)
				}
				mf.pending[u] = slices.Delete(mf.pending[u], i, i+1)
			}
			mf.m.add(key, -1)
		case e.Kind == "emul" && (e.Msg == failed || e.Msg == restarted):
			for _, key := range mf.pending[e.Region] {
				mf.m.add(key, -1)
				mf.discards++
			}
			mf.pending[e.Region] = nil
		}
	})
	n.cg.OnDrop(func(u geo.RegionID, level int, d *cgcast.Delivery) {
		mf.m.add(mf.keyAt(u, level, d), -1)
		mf.drops++
		n.noteDropped(u, level, d)
	})
	if h := n.emulHost; h != nil {
		mf.pending = make([][]transitKey, f.tiling.NumRegions())
		for u := range mf.pending {
			f.layer.RegisterVSA(geo.RegionID(u), modelHandler{mf: mf, inner: emulRegionHandler{host: h, u: geo.RegionID(u)}})
		}
	}
	return mf
}

func (mf *modelFeed) keyAt(u geo.RegionID, level int, d *cgcast.Delivery) transitKey {
	return transitKey{obj: ObjectID(d.Obj), kind: d.Kind, from: d.From, to: mf.f.h.Cluster(u, level)}
}

// modelHandler wraps an emulated region's handler: a delivery to a live
// region is pending until it commits or the region loses it, and one to a
// dead region dies at once.
type modelHandler struct {
	mf    *modelFeed
	inner emulRegionHandler
}

func (w modelHandler) Receive(level int, msg any) {
	u := w.inner.u
	key := w.mf.keyAt(u, level, msg.(*cgcast.Delivery))
	if w.inner.host.em.Alive(u) {
		w.mf.pending[u] = append(w.mf.pending[u], key)
	} else {
		w.mf.m.add(key, -1)
	}
	w.inner.Receive(level, msg)
}

func (w modelHandler) Reset() { w.inner.Reset() }

// check compares the network with the model: InTransit(), InTransitFor(obj)
// for every object either has seen, and the move-family counter.
func (mf *modelFeed) check(t *testing.T, ctx string) {
	t.Helper()
	n, m := mf.f.net, mf.m
	for key, cnt := range m.inflight {
		if cnt < 0 {
			t.Fatalf("at %v (%s): %v resolved %d times more than it was sent", mf.f.k.Now(), ctx, key, -cnt)
		}
	}
	got := n.InTransit()
	if want := m.inTransit(); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
		t.Fatalf("at %v (%s): InTransit() = %v, model %v", mf.f.k.Now(), ctx, got, want)
	}
	for _, tr := range got {
		mf.objs[tr.Obj] = true
	}
	for obj := range mf.objs {
		if got, want := n.InTransitFor(obj), m.inTransitFor(obj); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("at %v (%s): InTransitFor(%d) = %v, model %v", mf.f.k.Now(), ctx, obj, got, want)
		}
	}
	if n.moveInflight != m.moveInflight {
		t.Fatalf("at %v (%s): %d move-family copies counted in flight, model %d", mf.f.k.Now(), ctx, n.moveInflight, m.moveInflight)
	}
}

// stepChecked steps the kernel dry, checking the model after every event,
// and returns how many events ran with something in flight.
func (mf *modelFeed) stepChecked(t *testing.T, ctx string) (busy int) {
	t.Helper()
	mf.check(t, ctx)
	for mf.f.k.Step() {
		mf.check(t, ctx)
		if len(mf.m.inflight) > 0 {
			busy++
		}
	}
	return busy
}

// TestRegistryMatchesMapModel runs seeded multi-object histories — moves,
// finds, regions failing and restarting — and after every kernel event
// requires InTransit(), InTransitFor(obj) for every object and the
// move-family counter to equal the map model fed from the tracer and the
// drop consumer: on the oracle host with head replication, where a message
// goes out in two copies and a failed region drops what reaches it, and on
// the emulated host, where a failed region also loses the deliveries it
// accepted and had not committed.
func TestRegistryMatchesMapModel(t *testing.T) {
	t.Run("oracle, replicated", func(t *testing.T) {
		drops := 0
		for seed := int64(1); seed <= 3; seed++ {
			tr := trace.New(1)
			f := newReplicatedFixture(t, 4, 5, false, WithTracer(tr))
			f.settle()
			mf := feedModel(f, tr)
			rng := rand.New(rand.NewSource(seed))
			regions := f.tiling.NumRegions()
			busy := mf.stepChecked(t, "initial path")
			specs := make([]AttachSpec, 12)
			for i := range specs {
				specs[i] = AttachSpec{Obj: ObjectID(i + 1), At: geo.RegionID(rng.Intn(regions))}
			}
			evs := attachBulk(t, f, specs)
			for round := 0; round < 8; round++ {
				// As in emulatedRun, finds and failures take turns.
				failing := round%2 == 1
				for _, sp := range specs {
					ev := evs[sp.Obj]
					nbrs := f.tiling.Neighbors(ev.Region())
					if err := ev.MoveTo(nbrs[rng.Intn(len(nbrs))]); err != nil {
						t.Fatal(err)
					}
					if !failing && rng.Intn(3) == 0 {
						if _, err := f.net.FindObject(geo.RegionID(rng.Intn(regions)), sp.Obj); err != nil {
							t.Fatal(err)
						}
					}
				}
				if failing {
					// A region fails a few events into the round — its one
					// stationary client leaves — and comes back with it.
					victim := vsa.ClientID(rng.Intn(regions))
					for i := 0; i < 5 && f.k.Step(); i++ {
						mf.check(t, "moves")
					}
					f.layer.FailClient(victim)
					mf.check(t, "failure")
					for i := 0; i < 20 && f.k.Step(); i++ {
						mf.check(t, "moves, a region down")
					}
					if err := f.layer.RestartClient(victim, geo.RegionID(victim)); err != nil {
						t.Fatal(err)
					}
				}
				busy += mf.stepChecked(t, "moves and finds")
			}
			if busy < 200 {
				t.Fatalf("seed %d: only %d events ran with anything in flight", seed, busy)
			}
			drops += mf.drops
		}
		if drops == 0 {
			t.Fatal("no copy was dropped")
		}
	})
	t.Run("emulated, region failure and restart", func(t *testing.T) {
		discards := 0
		for seed := int64(1); seed <= 3; seed++ {
			tr := trace.New(1)
			f := newFixture(t, fixtureConfig{side: 4, start: 0, alwaysUp: true,
				netOptions: []Option{WithEmulation(time.Millisecond, 50*time.Millisecond), WithTracer(tr)}})
			deployEmulNodes(t, f, 2)
			f.settle()
			mf := feedModel(f, tr)
			busy := emulatedRun(t, f, seed, func(ctx string) { mf.check(t, ctx) })
			if busy < 200 {
				t.Fatalf("seed %d: only %d events ran with anything in flight", seed, busy)
			}
			discards += mf.discards
		}
		if discards == 0 {
			t.Fatal("no failure or restart discarded an uncommitted delivery")
		}
	})
}

// emulatedRun drives a seeded multi-object run on f, an emulated network
// with 2 nodes a region, calling check after every kernel event and after
// every disturbance. Each round moves every object. Even rounds also look a
// few objects up; odd rounds fail one region, by failing its nodes a few
// events in, and new nodes enter it at once, so it restarts tRestart later.
// (Without heartbeats a find can chase a pointer the failure lost forever,
// so no find runs in a round with a failure.) It returns how many events ran
// with the network not move-quiescent.
func emulatedRun(t *testing.T, f *fixture, seed int64, check func(ctx string)) (busy int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	regions := f.tiling.NumRegions()
	em := f.net.Emulator()
	step := func(ctx string, limit int) {
		t.Helper()
		for i := 0; i != limit && f.k.Step(); i++ {
			check(ctx)
			if !f.net.MoveQuiescent() {
				busy++
			}
		}
	}
	check("start")
	step("initial path", -1)
	evs := map[ObjectID]*evader.Evader{DefaultObject: f.ev}
	objs := []ObjectID{DefaultObject}
	for obj := ObjectID(1); obj <= 4; obj++ {
		ev, err := evader.New(f.tiling, geo.RegionID(rng.Intn(regions)), f.net.SinkFor(obj))
		if err != nil {
			t.Fatal(err)
		}
		f.net.AttachObject(obj, ev.Region)
		evs[obj], objs = ev, append(objs, obj)
	}
	step("objects placed", -1)
	nextNode := emul.NodeID(1 << 20)
	for round := 0; round < 8; round++ {
		failing := round%2 == 1
		for _, obj := range objs {
			ev := evs[obj]
			nbrs := f.tiling.Neighbors(ev.Region())
			if err := ev.MoveTo(nbrs[rng.Intn(len(nbrs))]); err != nil {
				t.Fatal(err)
			}
			if !failing && rng.Intn(2) == 0 {
				if _, err := f.net.FindObject(geo.RegionID(rng.Intn(regions)), obj); err != nil {
					t.Fatal(err)
				}
			}
		}
		check("inputs")
		if failing {
			step("moves", 10+rng.Intn(40))
			victim := geo.RegionID(rng.Intn(regions))
			for _, id := range em.Members(victim) {
				em.FailNode(id)
			}
			check("failure")
			for j := 0; j < 2; j++ {
				if err := em.AddNode(nextNode, victim); err != nil {
					t.Fatal(err)
				}
				nextNode++
			}
			check("nodes back")
		}
		step("moves", -1)
	}
	return busy
}

// A batched frame's send, delivery and drop allocate nothing once the frame
// pool is warm: C-gcast's list of every frame, which InFlight walks, takes
// an entry only when a frame is first made, and the move-family counter is
// a count. Each round sends grows, which the counter counts, and findAcks,
// which it does not, in one frame; the grows come from a cluster outside the
// addressee's neighbourhood and the findAcks find no find pending, so no
// round changes a row. Every odd round the frame is lost on its route.
func TestFrameSendDeliverDropAllocatesNothing(t *testing.T) {
	f := newFixture(t, fixtureConfig{side: 4, start: 0, alwaysUp: true,
		cgOptions: []cgcast.Option{cgcast.WithBatching()}})
	f.settle()
	from, to := f.h.Cluster(0, 0), f.h.Cluster(15, 0)
	if _, inHood := f.net.Process(to).index(from); inHood {
		t.Fatalf("%v is in %v's neighbourhood; the grows would change its rows", from, to)
	}
	lose := false
	f.gc.SetLoss(func(cur, next geo.RegionID) bool { return lose })
	rounds := 0
	round := func() {
		lose = rounds%2 == 1
		rounds++
		for obj := int32(100); obj < 104; obj++ {
			for _, kind := range []kindCode{kindGrow, kindFindAck} {
				e := sendEffect{From: from, To: to, Kind: kind, Body: cgcast.Body{Obj: obj, Arg: int32(hier.NoCluster)}}
				f.net.execSend(&e)
			}
		}
		f.k.Run()
	}
	round() // warm-up: the frame, its entry segment and the held Delivery
	round()
	// Every frame resolves once, so those not delivered were dropped.
	sent, delivered := f.ledger.Messages(cgcast.FrameKind), f.ledger.Delivered(cgcast.FrameKind)
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("a round of 8 messages in one frame allocated %.1f times, want 0", allocs)
	}
	sent, delivered = f.ledger.Messages(cgcast.FrameKind)-sent, f.ledger.Delivered(cgcast.FrameKind)-delivered
	if sent != 101 || delivered != 51 {
		t.Errorf("%d of %d frames delivered in 101 rounds, want 51 of 101", delivered, sent)
	}
	if got := f.net.InTransit(); len(got) != 0 || f.net.moveInflight != 0 {
		t.Errorf("after the rounds: %v in transit, %d move-family copies counted", got, f.net.moveInflight)
	}
}
