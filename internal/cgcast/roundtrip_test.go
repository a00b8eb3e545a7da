package cgcast_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"vinestalk/internal/cgcast"
	"vinestalk/internal/geo"
	"vinestalk/internal/geocast"
	"vinestalk/internal/hier"
	"vinestalk/internal/metrics"
	"vinestalk/internal/sim"
	"vinestalk/internal/vbcast"
	"vinestalk/internal/vsa"
)

// resolution is one copy of a message reaching its handler or the drop
// consumer: where, at which level, and what it said.
type resolution struct {
	u       geo.RegionID
	level   int
	del     cgcast.Delivery
	dropped bool
}

// roundTripWorld is one transport stack whose handlers and drop consumer
// record every resolution.
type roundTripWorld struct {
	k      *sim.Kernel
	tiling *geo.GridTiling
	h      *hier.Hierarchy
	layer  *vsa.Layer
	gc     *geocast.Service
	cg     *cgcast.Service
	ledger *metrics.Ledger
	got    []resolution
}

type roundTripVSA struct {
	w *roundTripWorld
	u geo.RegionID
}

func (v roundTripVSA) Reset() {}
func (v roundTripVSA) Receive(level int, msg any) {
	if d, ok := msg.(*cgcast.Delivery); ok {
		v.w.got = append(v.w.got, resolution{u: v.u, level: level, del: *d})
	}
}

func newRoundTripWorld(t *testing.T, batched, replicated bool) *roundTripWorld {
	t.Helper()
	k := sim.New(1)
	tiling := geo.MustGridTiling(8, 8)
	h := hier.MustGrid(tiling, 2)
	layer := vsa.NewLayer(k, tiling)
	w := &roundTripWorld{k: k, tiling: tiling, h: h, layer: layer, ledger: metrics.NewLedger()}
	for u := 0; u < tiling.NumRegions(); u++ {
		layer.RegisterVSA(geo.RegionID(u), roundTripVSA{w: w, u: geo.RegionID(u)})
		if err := layer.AddClient(vsa.ClientID(u), geo.RegionID(u), lifetimeClient{}); err != nil {
			t.Fatal(err)
		}
	}
	layer.StartAllAlive()
	vb := vbcast.New(k, layer, 10*time.Millisecond, 5*time.Millisecond, w.ledger)
	w.gc = geocast.New(k, layer, h.Graph(), vb, w.ledger)
	var opts []cgcast.Option
	if batched {
		opts = append(opts, cgcast.WithBatching())
	}
	if replicated {
		opts = append(opts, cgcast.WithReplication())
	}
	var err error
	if w.cg, err = cgcast.New(h, layer, w.gc, vb, hier.MeasureGeometry(h), w.ledger, opts...); err != nil {
		t.Fatal(err)
	}
	w.cg.OnDrop(func(u geo.RegionID, level int, d *cgcast.Delivery) {
		w.got = append(w.got, resolution{u: u, level: level, del: *d, dropped: true})
	})
	return w
}

// fail crash-stops every client in region u, so its VSA fails now.
func (w *roundTripWorld) fail(u geo.RegionID) {
	for _, id := range w.layer.ClientsIn(u) {
		w.layer.FailClient(id)
	}
}

// slackRoute picks two neighbouring level-1 clusters whose message is held
// at each destination head a while before it is due: every head it is
// delivered to is at least one hop from the sender, and reached before the
// due time.
func (w *roundTripWorld) slackRoute(t *testing.T) (from, to hier.ClusterID) {
	t.Helper()
	g := w.h.Graph()
	for c := 0; c < w.h.NumClusters(); c++ {
		from := hier.ClusterID(c)
		if w.h.Level(from) != 1 {
			continue
		}
		for _, to := range w.h.Nbrs(from) {
			src, ok := w.h.Head(from), true
			for _, dst := range []geo.RegionID{w.h.Head(to), w.h.AltHead(to)} {
				if dst == geo.NoRegion {
					continue
				}
				d := g.Distance(src, dst)
				ok = ok && d >= 1 && w.cg.Unit()*sim.Time(d) < w.cg.ScheduleDelay(from, to)
			}
			if ok {
				return from, to
			}
		}
	}
	t.Fatal("no level-1 route is held before its due time")
	return
}

type roundTripPayload struct{ n int }

// What was sent is what arrives: a cluster message — batched or not, with
// head replication or without — reaches its handler, or the drop consumer
// on every path a message dies by, as a Delivery equal field by field to the
// send, at the level it was addressed to, and its "proto/" kind conserves
// (sent == delivered + drops). Until it resolves, InFlight lists each copy
// where it is addressed, and nothing else. A client broadcast, delivered or
// dropped, does the same, conserving under transport/client.
func TestWhatWasSentArrives(t *testing.T) {
	type scenario struct {
		name  string
		cause metrics.DropCause // "" when every copy is delivered
		// hit reports whether the copy headed for dst dies in the scenario.
		hit func(w *roundTripWorld, to hier.ClusterID, dst geo.RegionID) bool
		// before runs before the send, after at the same instant right after.
		before, after func(w *roundTripWorld, from, to hier.ClusterID)
		batchedOnly   bool
	}
	primary := func(w *roundTripWorld, to hier.ClusterID, dst geo.RegionID) bool { return dst == w.h.Head(to) }
	every := func(*roundTripWorld, hier.ClusterID, geo.RegionID) bool { return true }
	scenarios := []scenario{
		{name: "delivered", hit: func(*roundTripWorld, hier.ClusterID, geo.RegionID) bool { return false }},
		{
			// The primary head holds the message to its due time, but has no
			// handler to take it then.
			name: "dead VSA at delivery", cause: metrics.DropDeadVSA, hit: primary,
			before: func(w *roundTripWorld, from, to hier.ClusterID) { w.layer.RegisterVSA(w.h.Head(to), nil) },
		},
		{
			// The primary head fails after the message arrived, before it is due.
			name: "VSA reset while held", cause: metrics.DropVSAReset, hit: primary,
			after: func(w *roundTripWorld, from, to hier.ClusterID) {
				arrive := w.cg.Unit() * sim.Time(w.h.Graph().Distance(w.h.Head(from), w.h.Head(to)))
				due := w.cg.ScheduleDelay(from, to)
				w.k.At(w.k.Now()+(arrive+due)/2, func() { w.fail(w.h.Head(to)) })
			},
		},
		{
			// The sender fails at the send's instant, before its frames flush.
			name: "sender dead at flush", cause: metrics.DropDeadVSA, hit: every, batchedOnly: true,
			after: func(w *roundTripWorld, from, to hier.ClusterID) { w.fail(w.h.Head(from)) },
		},
		{
			name: "lost in the geocast substrate", cause: metrics.DropLoss, hit: every,
			before: func(w *roundTripWorld, from, to hier.ClusterID) {
				w.gc.SetLoss(func(cur, next geo.RegionID) bool { return true })
			},
		},
	}
	for _, batched := range []bool{false, true} {
		for _, replicated := range []bool{false, true} {
			for _, sc := range scenarios {
				if sc.batchedOnly && !batched {
					continue // unbatched, a dead sender's send is refused
				}
				t.Run(fmt.Sprintf("batched=%v/replicated=%v/%s", batched, replicated, sc.name), func(t *testing.T) {
					w := newRoundTripWorld(t, batched, replicated)
					from, to := w.slackRoute(t)
					want := cgcast.Delivery{
						Kind: "probe", From: from, FromRegion: w.h.Head(from),
						Body: cgcast.Body{Obj: 7, Arg: -3, Payload: &roundTripPayload{n: 42}},
					}
					if sc.before != nil {
						sc.before(w, from, to)
					}
					if err := w.cg.ClusterToClusterIndexed(w.h.Head(from), from, to, kindOf(w.cg, want.Kind), &want.Body); err != nil {
						t.Fatal(err)
					}
					if sc.after != nil {
						sc.after(w, from, to)
					}
					dsts := map[geo.RegionID]bool{w.h.Head(to): true}
					if replicated && w.h.AltHead(to) != geo.NoRegion {
						dsts[w.h.AltHead(to)] = true
					}
					w.run(t, want, w.h.Level(to), dsts)

					if len(w.got) != len(dsts) {
						t.Fatalf("%d copies resolved, want %d: %+v", len(w.got), len(dsts), w.got)
					}
					drops := 0
					for _, r := range w.got {
						if !dsts[r.u] {
							t.Errorf("a copy resolved at %v, addressed to %v", r.u, dsts)
						}
						delete(dsts, r.u)
						if r.level != w.h.Level(to) {
							t.Errorf("copy at %v resolved at level %d, addressed to level %d", r.u, r.level, w.h.Level(to))
						}
						if !reflect.DeepEqual(r.del, want) {
							t.Errorf("copy at %v resolved as\n%+v\nsent as\n%+v", r.u, r.del, want)
						}
						if hit := sc.cause != "" && sc.hit(w, to, r.u); r.dropped != hit {
							t.Errorf("copy at %v: dropped %v, want %v", r.u, r.dropped, hit)
						}
						if r.dropped {
							drops++
						}
					}
					snap := w.ledger.Snapshot()
					if sc.cause != "" {
						if got := snap.Drops["proto/probe"][sc.cause]; got != int64(drops) {
							t.Errorf("%d drops under %q, %d copies dropped", got, sc.cause, drops)
						}
					}
					conserves(t, snap, "proto/probe")
				})
			}
			t.Run(fmt.Sprintf("batched=%v/replicated=%v/client", batched, replicated), func(t *testing.T) {
				w := newRoundTripWorld(t, batched, replicated)
				u := w.tiling.RegionAt(3, 3)
				for i, dst := range []geo.RegionID{u, w.tiling.RegionAt(4, 3)} {
					want := cgcast.Delivery{
						Kind: "client", From: hier.NoCluster, FromRegion: u,
						Body: cgcast.Body{Obj: int32(i), Arg: 9, Payload: &roundTripPayload{n: i}},
					}
					w.got = w.got[:0]
					if err := w.cg.ClientToClusterIndexed(vsa.ClientID(u), w.h.Cluster(dst, 0), kindOf(w.cg, want.Kind), want.Body); err != nil {
						t.Fatal(err)
					}
					drop := i == 1 // the second broadcast's target fails in flight
					if drop {
						w.fail(dst)
					}
					w.run(t, want, 0, map[geo.RegionID]bool{dst: true})
					if len(w.got) != 1 {
						t.Fatalf("broadcast %d resolved %d times", i, len(w.got))
					}
					r := w.got[0]
					if r.u != dst || r.level != 0 || r.dropped != drop || !reflect.DeepEqual(r.del, want) {
						t.Errorf("broadcast %d resolved as %+v at %v level %d (dropped %v), sent as %+v to %v",
							i, r.del, r.u, r.level, r.dropped, want, dst)
					}
				}
				// A client broadcast resolves at V-bcast, under transport/client;
				// its "proto/" kind counts the send.
				snap := w.ledger.Snapshot()
				conserves(t, snap, "transport/client")
				if got := snap.MsgCount["proto/client"]; got != 2 {
					t.Errorf("proto/client: %d sends charged, 2 accepted", got)
				}
			})
		}
	}
}

// run steps the kernel dry. After the send and after every event, each copy
// of the message sent not yet resolved is listed by InFlight, at a region in
// dsts and at level, saying what was sent, and nothing else is listed.
func (w *roundTripWorld) run(t *testing.T, want cgcast.Delivery, level int, dsts map[geo.RegionID]bool) {
	t.Helper()
	for {
		listed := 0
		w.cg.InFlight(func(u geo.RegionID, l int, d *cgcast.Delivery) {
			listed++
			if !dsts[u] || l != level || !reflect.DeepEqual(*d, want) {
				t.Errorf("in flight at %v level %d: %+v; sent to %v at level %d: %+v", u, l, *d, dsts, level, want)
			}
		})
		if listed+len(w.got) != len(dsts) {
			t.Fatalf("at %v: %d copies in flight and %d resolved, %d sent", w.k.Now(), listed, len(w.got), len(dsts))
		}
		if !w.k.Step() {
			return
		}
	}
}

// conserves checks that every message of kind resolved: sent == delivered +
// drops.
func conserves(t *testing.T, snap metrics.Snapshot, kind string) {
	t.Helper()
	var dropped int64
	for _, n := range snap.Drops[kind] {
		dropped += n
	}
	if sent := snap.MsgCount[kind]; sent == 0 || sent != snap.Delivered[kind]+dropped {
		t.Errorf("%s: sent %d, delivered %d + dropped %d", kind, sent, snap.Delivered[kind], dropped)
	}
}

// echoVSA answers each probe from inside Receive with a send that dies at
// once, then checks that the Delivery it was handed still says what it said
// before the send.
type echoVSA struct {
	w      *roundTripWorld
	t      *testing.T
	from   hier.ClusterID // the cluster the answer is sent from
	echoes int
}

func (v *echoVSA) Reset() {}
func (v *echoVSA) Receive(level int, msg any) {
	d, ok := msg.(*cgcast.Delivery)
	if !ok || d.Kind != "probe" {
		return
	}
	before := *d
	v.w.gc.SetLoss(func(cur, next geo.RegionID) bool { return true })
	if err := v.w.cg.ClusterToClusterIndexed(v.w.h.Head(v.from), v.from, d.From, kindOf(v.w.cg, "echo"), &cgcast.Body{Obj: -1, Arg: -1}); err != nil {
		v.t.Fatal(err)
	}
	v.w.gc.SetLoss(nil)
	v.echoes++
	if !reflect.DeepEqual(*d, before) {
		v.t.Errorf("a send from inside Receive changed the Delivery being handled:\nbefore %+v\nafter  %+v", before, *d)
	}
}

// A handler's Delivery is valid for the whole call: a send the handler
// makes that is dropped before the send returns (unbatched, lost on its
// first hop) is handed to the drop consumer without overwriting the
// message the handler is still reading.
func TestDeliveryOutlivesHandlerSends(t *testing.T) {
	w := newRoundTripWorld(t, false, false)
	from, to := w.slackRoute(t)
	v := &echoVSA{w: w, t: t, from: to}
	w.layer.RegisterVSA(w.h.Head(to), v)
	want := cgcast.Body{Obj: 7, Arg: 3, Payload: &roundTripPayload{n: 1}}
	if err := w.cg.ClusterToClusterIndexed(w.h.Head(from), from, to, kindOf(w.cg, "probe"), &want); err != nil {
		t.Fatal(err)
	}
	w.k.Run()
	if v.echoes != 1 {
		t.Fatalf("%d probes handled, want 1", v.echoes)
	}
	if len(w.got) != 1 || !w.got[0].dropped || w.got[0].del.Kind != "echo" || w.got[0].del.Obj != -1 {
		t.Errorf("the echo resolved as %+v, want one drop of the echo", w.got)
	}
}
