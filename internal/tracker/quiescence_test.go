package tracker

import (
	"math/rand"
	"testing"

	"vinestalk/internal/geo"
)

// moveQuiescentByScan is MoveQuiescent as it was computed before the
// counters: a pass over the in-transit registry and over every row of every
// process. It is the reference the O(1) answer is checked against.
func moveQuiescentByScan(n *Network) bool {
	for _, tr := range n.InTransit() {
		switch tr.Kind {
		case KindFind, KindFindQuery, KindFindAck, KindRefresh:
		default:
			return false
		}
	}
	busy := false
	eachProcess(n.aut, func(pr *Process) {
		pr.objs.each(func(st *objState) { busy = busy || st.armed(timerGrowShrink) })
	})
	return !busy
}

// TestMoveQuiescentMatchesFullScan steps a seeded multi-object run (head
// replication on, so backups and two-copy sends count too) one kernel event
// at a time and compares the counter answer with the full scan after each —
// through bulk attach, concurrent moves and finds, region state round-tripped
// through the codec, a stale busy snapshot decoded over a quiet region, and
// region resets. Every region's host wakeups must be exactly its armed timer
// variables after each step and each disturbance: none left over from a
// clear, from the state a decode replaced or from a reset, none missing for
// a decoded deadline.
func TestMoveQuiescentMatchesFullScan(t *testing.T) {
	f := newReplicatedFixture(t, 4, 5, true)
	aut := f.net.Automaton()
	regions := f.tiling.NumRegions()
	rng := rand.New(rand.NewSource(11))
	steps, busySteps := 0, 0
	check := func(ctx string) {
		t.Helper()
		got, want := f.net.MoveQuiescent(), moveQuiescentByScan(f.net)
		if got != want {
			t.Fatalf("step %d (%s): MoveQuiescent() = %v, full scan says %v (armed %d, in flight %d)",
				steps, ctx, got, want, aut.armedMove, f.net.moveInflight)
		}
		if !want {
			busySteps++
		}
		for u := geo.RegionID(0); int(u) < regions; u++ {
			if got, want := f.net.ArmedWakeups(u), armedIn(aut, u); got != want {
				t.Fatalf("step %d (%s): region %d has %d wakeups armed for %d armed timer variables", steps, ctx, u, got, want)
			}
		}
	}
	// drain steps the kernel dry; every 50th event it disturbs a random
	// region's state the way a host can.
	var stale []byte
	staleRegion := geo.NoRegion
	drain := func(ctx string) {
		t.Helper()
		check(ctx)
		for f.k.Step() {
			steps++
			check(ctx)
			if steps%50 != 0 {
				continue
			}
			u := geo.RegionID(rng.Intn(regions))
			switch (steps / 50) % 4 {
			case 0: // codec round trip: same state, counters rebuilt
				if err := aut.DecodeRegion(u, aut.EncodeRegion(u)); err != nil {
					t.Fatal(err)
				}
				check(ctx + ", decode round trip")
			case 1: // keep a snapshot taken mid-cascade
				if !f.net.MoveQuiescent() {
					stale, staleRegion = aut.EncodeRegion(u), u
				}
			case 2: // roll a region back to it, then lose the region
				if stale == nil {
					continue
				}
				if err := aut.DecodeRegion(staleRegion, stale); err != nil {
					t.Fatal(err)
				}
				check(ctx + ", stale decode")
				aut.ResetRegion(staleRegion)
				check(ctx + ", reset after stale decode")
				stale = nil
			case 3:
				aut.ResetRegion(u)
				check(ctx + ", reset")
			}
		}
	}
	drain("initial path")

	specs := make([]AttachSpec, 48)
	for i := range specs {
		specs[i] = AttachSpec{Obj: ObjectID(i - 8), At: geo.RegionID(rng.Intn(regions))}
	}
	specs[8].Obj = ObjectID(1000) // ids -8…39 but for 0, which is the fixture's evader
	evs := attachBulk(t, f, specs)
	drain("bulk attach")
	for round := 0; round < 4; round++ {
		for _, sp := range specs { // not range evs: map order would reseed the run
			obj, ev := sp.Obj, evs[sp.Obj]
			nbrs := f.tiling.Neighbors(ev.Region())
			if err := ev.MoveTo(nbrs[rng.Intn(len(nbrs))]); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(3) == 0 {
				if _, err := f.net.FindObject(geo.RegionID(rng.Intn(regions)), obj); err != nil {
					t.Fatal(err)
				}
			}
			check("inputs")
		}
		drain("moves and finds")
	}
	if busySteps < steps/4 || steps < 1000 {
		t.Fatalf("run too quiet to mean anything: %d of %d steps were non-quiescent", busySteps, steps)
	}
}
