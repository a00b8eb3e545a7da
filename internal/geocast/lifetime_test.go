package geocast_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"vinestalk/internal/chaos"
	"vinestalk/internal/geo"
	"vinestalk/internal/geocast"
	"vinestalk/internal/metrics"
	"vinestalk/internal/sim"
	"vinestalk/internal/vbcast"
	"vinestalk/internal/vsa"
)

// lifetimeReceiver counts how its message resolved and, when it is a
// trigger, routes again from inside the notification — the route record
// that carried it was released just before the call and is the one reused.
type lifetimeReceiver struct {
	w       *lifetimeWorld
	at      geo.RegionID // where the message resolves when it arrives
	trigger bool
	calls   int
}

func (r *lifetimeReceiver) Arrived() {
	r.calls++
	if r.trigger {
		r.w.route(r.at, false)
	}
}

func (r *lifetimeReceiver) Dropped(metrics.DropCause) {
	r.calls++
	r.w.drops++
}

type lifetimeWorld struct {
	gc    *geocast.Service
	rng   *rand.Rand
	n     int
	rcvs  []*lifetimeReceiver
	drops int
}

func (w *lifetimeWorld) route(from geo.RegionID, trigger bool) {
	to := geo.RegionID(w.rng.Intn(w.n))
	r := &lifetimeReceiver{w: w, at: to, trigger: trigger}
	if err := w.gc.Route(from, to, r); err != nil {
		return // source VSA down: nothing sent, receiver never called
	}
	w.rcvs = append(w.rcvs, r)
}

// Every route record taken from the free list goes back exactly once, and
// never while the kernel event of a hop in flight can still reach it — under
// crash windows, client churn, sampled delays and injected loss, with
// receivers that route again from inside Arrived. A double release or a hop
// event firing on a released record panics inside the service; a leak shows
// as made != free once the queue drains; and every accepted message must
// tell its receiver exactly once.
func TestRouteLifetimeUnderChaos(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			const side = 8
			k := sim.New(seed)
			tiling := geo.MustGridTiling(side, side)
			layer := vsa.NewLayer(k, tiling, vsa.WithTRestart(20*time.Millisecond))
			for u := 0; u < tiling.NumRegions(); u++ {
				layer.RegisterVSA(geo.RegionID(u), chaosNopVSA{})
				if err := layer.AddClient(vsa.ClientID(u), geo.RegionID(u), chaosNopClient{}); err != nil {
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
			w := &lifetimeWorld{
				gc:  geocast.New(k, layer, geo.NewGraph(tiling), vb, ledger),
				rng: rand.New(rand.NewSource(seed * 7919)),
				n:   tiling.NumRegions(),
			}
			w.gc.SetLoss(plan.LossFunc(k))
			addClient := func(id vsa.ClientID, u geo.RegionID) error {
				return layer.AddClient(id, u, chaosNopClient{})
			}
			if err := plan.Install(k, layer, addClient, 1000); err != nil {
				t.Fatal(err)
			}

			var burst func()
			burst = func() {
				for i := 0; i < 8; i++ {
					w.route(geo.RegionID(w.rng.Intn(w.n)), w.rng.Intn(3) == 0)
				}
				if k.Now() < time.Second {
					k.Schedule(7*time.Millisecond, burst)
				}
			}
			k.At(0, burst)
			if _, err := k.RunLimited(5_000_000); err != nil {
				t.Fatal(err)
			}

			if made, free := w.gc.RoutesForTest(); made != free || made == 0 {
				t.Errorf("%d route records allocated, %d back in the free list", made, free)
			}
			for i, r := range w.rcvs {
				if r.calls != 1 {
					t.Errorf("message %d resolved %d times", i, r.calls)
				}
			}
			snap := ledger.Snapshot()
			const kind = "transport/geocast"
			var dropped int64
			for _, v := range snap.Drops[kind] {
				dropped += v
			}
			if sent := snap.MsgCount[kind]; sent != snap.Delivered[kind]+dropped || int(dropped) != w.drops {
				t.Errorf("%s: sent %d, delivered %d, dropped %d (receivers told of %d)", kind, sent, snap.Delivered[kind], dropped, w.drops)
			}
			if w.drops == 0 || len(w.rcvs) < 1000 {
				t.Errorf("run too quiet to mean anything: %d messages, %d drops", len(w.rcvs), w.drops)
			}
		})
	}
}
