package tracker

import (
	"math/rand"
	"testing"

	"vinestalk/internal/geo"
	"vinestalk/internal/sim"
	"vinestalk/internal/vsa"
)

// TestHostTimersMatchReference drives random arms, re-arms, disarms, region
// disarms and kernel steps against a map of (region, id) → deadline. Every
// wakeup must be one the model holds, at its deadline, and after every
// operation each region's count must be the model's.
func TestHostTimersMatchReference(t *testing.T) {
	const regions, ids = 6, 10
	type key struct {
		u  geo.RegionID
		id vsa.TimerID
	}
	k := sim.New(1)
	rng := rand.New(rand.NewSource(2))
	model := map[key]sim.Time{}
	ht := newHostTimers(k, regions, func(u geo.RegionID, id vsa.TimerID, at sim.Time) {
		want, ok := model[key{u, id}]
		if !ok || want != at || k.Now() != at {
			t.Fatalf("wakeup of (%d, %d) for %v at %v; the model holds %v (%v)", u, id, at, k.Now(), want, ok)
		}
		delete(model, key{u, id})
	})
	for op := 0; op < 20_000; op++ {
		u, id := geo.RegionID(rng.Intn(regions)), vsa.TimerID(rng.Intn(ids))<<40|vsa.TimerID(rng.Intn(4))
		switch r := rng.Intn(10); {
		case r < 4:
			at := k.Now() + sim.Time(rng.Intn(50))
			ht.arm(u, id, at)
			model[key{u, id}] = at
		case r < 6:
			ht.disarm(u, id)
			delete(model, key{u, id})
		case r == 6:
			ht.disarmRegion(u)
			for kk := range model {
				if kk.u == u {
					delete(model, kk)
				}
			}
		default:
			k.Step()
		}
		counts := make([]int, regions)
		for kk := range model {
			counts[kk.u]++
		}
		for u := range counts {
			if got := ht.armedIn(geo.RegionID(u)); got != counts[u] {
				t.Fatalf("op %d: region %d has %d wakeups armed, the model %d", op, u, got, counts[u])
			}
		}
	}
}

// Arming, re-arming, clearing and firing wakeups allocates nothing once a
// region's table and the timer free list are warm.
func TestHostTimersSteadyStateAllocatesNothing(t *testing.T) {
	k := sim.New(1)
	fired := 0
	ht := newHostTimers(k, 4, func(geo.RegionID, vsa.TimerID, sim.Time) { fired++ })
	for id := vsa.TimerID(0); id < 64; id++ {
		ht.arm(2, id, sim.Time(id))
	}
	k.Run()
	id := vsa.TimerID(0)
	if got := testing.AllocsPerRun(1000, func() {
		id = (id + 1) % 64
		ht.arm(2, id, k.Now()+2)
		ht.arm(2, id, k.Now()+1) // re-armed
		ht.arm(2, id+64, k.Now()+3)
		ht.disarm(2, id+64)
		k.Step()
	}); got != 0 {
		t.Errorf("steady-state arm, re-arm, disarm and fire allocated %v times, want 0", got)
	}
	if fired < 1000 {
		t.Fatalf("%d wakeups fired", fired)
	}
}
