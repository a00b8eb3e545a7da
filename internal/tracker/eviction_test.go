package tracker

import (
	"bytes"
	"math/rand"
	"testing"

	"vinestalk/internal/cgcast"
	"vinestalk/internal/evader"
	"vinestalk/internal/geo"
	"vinestalk/internal/hier"
	"vinestalk/internal/sim"
)

// eachProcess visits every process of the machine, primaries then backups.
func eachProcess(a *Automaton, fn func(*Process)) {
	for _, pr := range a.procs {
		fn(pr)
	}
	for _, pr := range a.backups {
		if pr != nil {
			fn(pr)
		}
	}
}

// liveObjects sums the per-process object tables across the whole machine
// (primaries and backups) — the footprint the quiescence eviction bounds.
func liveObjects(a *Automaton) int {
	total := 0
	eachProcess(a, func(pr *Process) { total += pr.LiveObjects() })
	return total
}

// TestStaleEnvelopeDoesNotAllocateState is the regression test for the
// object-state leak: a message for an unknown object whose payload implies
// no structure (all pointers stay nil, no timers armed, nothing pending)
// must not leave a persistent state vector behind. Before the quiescence
// eviction, every such envelope — e.g. a chaos-delayed shrink replayed to
// a region the object never legitimately rooted through — grew the
// process's object table forever.
//
// Such an input also never touches the table: it runs against a scratch row
// that leave drops. The allocation pin proves it at processes where any
// insert has to allocate — one that never held a row (an insert builds its
// probe array) and two whose probe array is filled with inert rows up to the
// point where one more row grows it.
func TestStaleEnvelopeDoesNotAllocateState(t *testing.T) {
	f := newFixture(t, fixtureConfig{side: 4, start: 5, alwaysUp: true})
	f.settle()
	aut := f.net.Automaton()

	// A mid-hierarchy process off the evader's path (it holds secondary
	// pointers only), the one on the path, and one that holds nothing.
	var offPath, empty *Process
	for _, cand := range aut.procs {
		c, p, _, _ := cand.Pointers()
		switch {
		case cand.LiveObjects() == 0:
			empty = cand
		case cand.Level() == 1 && c == hier.NoCluster && p == hier.NoCluster && offPath == nil:
			offPath = cand
		}
	}
	if offPath == nil || empty == nil {
		t.Fatalf("no off-path level-1 process (%v) or no process without state (%v)", offPath, empty)
	}
	if empty.objs.rows != nil {
		t.Fatalf("stateless process %v has a probe array: %+v", empty.Cluster(), empty.objs)
	}
	onPath := f.net.Process(f.h.Cluster(f.ev.Region(), 1))
	for _, pr := range []*Process{offPath, onPath} {
		if pr.LiveObjects() != 1 {
			t.Fatalf("process %v does not hold one row: %+v", pr.Cluster(), pr.objs)
		}
		// Rows with a secondary pointer and no timer: nothing fires for
		// them, and they do not concern the ghost.
		for filler := ObjectID(1000); pr.objs.holds(pr.objs.len() + 1); filler++ {
			row := objState{obj: filler}
			row.nbrptup, _ = pr.index(f.h.Nbrs(pr.Cluster())[0])
			pr.objs.insert(row)
		}
	}

	const ghost = ObjectID(99)
	for _, pr := range []*Process{offPath, onPath, empty} {
		nbrs := f.h.Nbrs(pr.Cluster())
		if len(nbrs) == 0 {
			t.Fatal("process has no neighbor clusters")
		}
		from := nbrs[0]
		structureFree := []cgcast.Delivery{
			{Kind: KindShrink, Body: bodyFor(ghost), From: from, FromRegion: f.h.Head(from)},
			{Kind: KindShrinkUpd, Body: bodyFor(ghost), From: from, FromRegion: f.h.Head(from)},
			{Kind: KindFindQuery, Body: bodyFor(ghost), From: from, FromRegion: f.h.Head(from)},
			{Kind: KindFindAck, Body: cgcast.Body{Obj: int32(ghost), Arg: int32(hier.NoCluster)}, From: from, FromRegion: f.h.Head(from)},
		}
		for i := range structureFree {
			d := &structureFree[i]
			beforeLive := liveObjects(aut)
			beforeTable := pr.LiveObjects()
			beforeEnc := aut.EncodeRegion(pr.Region())
			// Replay the envelope: the "dropped then replayed" shape of the
			// bug report.
			if allocs := testing.AllocsPerRun(10, func() { pr.receive(d) }); allocs != 0 {
				t.Errorf("%s for unknown object at %v allocates %v times per delivery", d.Kind, pr.Cluster(), allocs)
			}
			f.settle()
			if got := pr.LiveObjects(); got != beforeTable {
				t.Errorf("%s for unknown object grew len(pr.objs): %d -> %d", d.Kind, beforeTable, got)
			}
			if got := liveObjects(aut); got != beforeLive {
				t.Errorf("%s for unknown object grew machine-wide state: %d -> %d", d.Kind, beforeLive, got)
			}
			if !bytes.Equal(aut.EncodeRegion(pr.Region()), beforeEnc) {
				t.Errorf("%s for unknown object changed region %v's encoding", d.Kind, pr.Region())
			}
		}
	}
}

// TestChurnEvictsToBaseline is the acceptance check for the lifecycle fix:
// an object that is created, tracked through several moves, found, and
// then removed leaves no residue — every region's EncodeRegion bytes and
// the machine-wide live-object count return exactly to the pre-object
// baseline.
func TestChurnEvictsToBaseline(t *testing.T) {
	f := newFixture(t, fixtureConfig{side: 4, start: 5, alwaysUp: true})
	f.settle()
	aut := f.net.Automaton()

	baselineLive := liveObjects(aut)
	baselineEnc := make(map[geo.RegionID][]byte, f.tiling.NumRegions())
	for u := 0; u < f.tiling.NumRegions(); u++ {
		baselineEnc[geo.RegionID(u)] = aut.EncodeRegion(geo.RegionID(u))
	}

	const obj = ObjectID(7)
	ev := addSecondEvader(t, f, obj, geo.RegionID(10))
	f.settle()
	for _, to := range []geo.RegionID{11, 15, 14} {
		if err := ev.MoveTo(to); err != nil {
			t.Fatal(err)
		}
		f.settle()
	}
	if _, err := f.net.FindObject(geo.RegionID(0), obj); err != nil {
		t.Fatal(err)
	}
	f.settle()
	if got := liveObjects(aut); got <= baselineLive {
		t.Fatalf("tracked object holds no state: live %d, baseline %d", got, baselineLive)
	}

	if err := f.net.RemoveObject(obj); err != nil {
		t.Fatal(err)
	}
	f.settle()

	if got := liveObjects(aut); got != baselineLive {
		t.Fatalf("after removal live objects = %d, want baseline %d", got, baselineLive)
	}
	for u := 0; u < f.tiling.NumRegions(); u++ {
		region := geo.RegionID(u)
		if got := aut.EncodeRegion(region); !bytes.Equal(got, baselineEnc[region]) {
			t.Errorf("region %v encoding did not return to baseline: %d bytes vs %d",
				region, len(got), len(baselineEnc[region]))
		}
	}

	// Removing an unknown object is an error, not a panic.
	if err := f.net.RemoveObject(ObjectID(1234)); err == nil {
		t.Error("RemoveObject of unattached object succeeded")
	}
}

// armedTimers counts the finite deadlines recorded in the machine state.
func armedTimers(a *Automaton) int {
	total := 0
	for u := range a.regions {
		total += armedIn(a, geo.RegionID(u))
	}
	return total
}

// armedIn counts the armed timer variables of the rows region u hosts.
func armedIn(a *Automaton, u geo.RegionID) int {
	n := 0
	d := a.regions[u]
	for _, level := range d.levels {
		d.byLevel[level].objs.each(func(st *objState) {
			for kind := timerKind(0); kind < numTimerKinds; kind++ {
				if st.armed(kind) {
					n++
				}
			}
		})
	}
	return n
}

// TestChurnLeavesNoHostTimers is the regression test for the host timer
// table leak: the oracle host kept one kernel timer and closure per (region,
// level, object, kind) ever armed. The table must hold exactly the armed
// deadlines of the machine state at every instant between events — checked
// through attach/move/find/detach churn with heartbeat leases running, VSA
// failures included — and be empty once a heartbeat-free run settles.
func TestChurnLeavesNoHostTimers(t *testing.T) {
	for _, heartbeat := range []sim.Time{0, 40 * unit} {
		f := newFixture(t, fixtureConfig{side: 4, start: 5, alwaysUp: heartbeat == 0, heartbeat: heartbeat, tRestart: unit})
		aut := f.net.Automaton()
		now := sim.Time(0)
		check := func(ctx string) {
			t.Helper()
			if heartbeat == 0 {
				f.settle()
			} else {
				now += 97 * unit
				f.k.RunUntil(now)
			}
			got := 0
			for u := 0; u < f.tiling.NumRegions(); u++ {
				got += f.net.ArmedWakeups(geo.RegionID(u))
			}
			if want := armedTimers(aut); got != want || (heartbeat == 0 && got != 0) {
				t.Fatalf("heartbeat %v, %s: host table holds %d timers, machine state has %d armed", heartbeat, ctx, got, want)
			}
		}
		check("initial path")

		rng := rand.New(rand.NewSource(7))
		evs := make(map[ObjectID]*evader.Evader)
		for round := 0; round < 6; round++ {
			for obj := ObjectID(1 + 8*round); obj < ObjectID(9+8*round); obj++ {
				evs[obj] = addSecondEvader(t, f, obj, geo.RegionID(rng.Intn(f.tiling.NumRegions())))
			}
			check("attach")
			for obj, ev := range evs {
				nbrs := f.tiling.Neighbors(ev.Region())
				if err := ev.MoveTo(nbrs[rng.Intn(len(nbrs))]); err != nil {
					t.Fatal(err)
				}
				if _, err := f.net.FindObject(geo.RegionID(rng.Intn(f.tiling.NumRegions())), obj); err != nil {
					t.Fatal(err)
				}
			}
			check("move+find")
			if heartbeat != 0 {
				// Evacuate a region: its VSA fails and its processes reset.
				u := geo.RegionID(rng.Intn(f.tiling.NumRegions()))
				f.layer.FailClient(vsaClientFor(u))
				check("VSA failure")
				if err := f.layer.RestartClient(vsaClientFor(u), u); err != nil {
					t.Fatal(err)
				}
				check("VSA restart")
			}
			for obj := range evs {
				if err := f.net.RemoveObject(obj); err != nil {
					t.Fatal(err)
				}
				delete(evs, obj)
			}
			check("detach")
		}
	}
}
