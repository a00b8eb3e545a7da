package tracker

import (
	"math/rand"
	"testing"

	"vinestalk/internal/hier"
	"vinestalk/internal/sim"
)

// Self-stabilization (§VII): the paper argues VINESTALK becomes
// self-stabilizing with heartbeat techniques since all its building blocks
// are. These tests start the tracker in adversarially corrupted states —
// arbitrary pointer values with arbitrary (finite) timer deadlines, the
// standard arbitrary-start setup for timed automata stabilization — and
// require the heartbeat machinery to converge back to a working structure.

// corrupt sets random pointers and arms the state leases with random
// deadlines, at k randomly chosen processes. Each pointer is ⊥ or any
// member of the process's neighbourhood, whatever its role: a row can hold
// no other value (one from outside the neighbourhood is refused where it
// enters). Timers are part of the state being corrupted: a corrupted-on
// lease models an arbitrary timer value, which is what lets the cleanup
// machinery see the garbage.
func corrupt(f *fixture, rng *rand.Rand, k int) {
	n := f.h.NumClusters()
	for i := 0; i < k; i++ {
		pr := f.net.Process(hier.ClusterID(rng.Intn(n)))
		randomPointer := func() hoodIdx {
			if rng.Intn(4) == 0 {
				return hoodNone
			}
			return hoodIdx(1 + rng.Intn(len(pr.hood)-1))
		}
		withState(pr, DefaultObject, func(st *objState) {
			st.c = randomPointer()
			st.p = randomPointer()
			st.nbrptup = randomPointer()
			st.nbrptdown = randomPointer()
			deadline := sim.Time(rng.Int63n(int64(f.net.hb.leaseFor(pr.level))))
			pr.setTimerAfter(st, timerLease, deadline)
			pr.setTimerAfter(st, timerNbrLease, deadline)
			if rng.Intn(2) == 0 {
				pr.setTimerAfter(st, timerGrowShrink, sim.Time(rng.Int63n(int64(f.net.sched.S[0]*4))))
			}
		})
	}
}

func TestStabilizationFromCorruptedPointers(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		f := newFixture(t, fixtureConfig{side: 8, start: 9, heartbeat: 8 * unit, tRestart: unit})
		f.k.RunFor(100 * unit) // healthy structure established
		rng := rand.New(rand.NewSource(seed))
		corrupt(f, rng, 20)

		// Convergence: leases expire, garbage shrinks away, heartbeats
		// rebuild the true path.
		f.k.RunFor(1500 * unit)
		f.assertPathReachesEvader(t)

		id, err := f.net.Find(f.tiling.RegionAt(7, 7))
		if err != nil {
			t.Fatal(err)
		}
		f.k.RunFor(600 * unit)
		if !f.net.FindDone(id) {
			t.Fatalf("seed %d: find did not complete after stabilization", seed)
		}
	}
}

func TestStabilizationClearsOffPathGarbage(t *testing.T) {
	f := newFixture(t, fixtureConfig{side: 8, start: 0, heartbeat: 8 * unit, tRestart: unit})
	f.k.RunFor(100 * unit)
	rng := rand.New(rand.NewSource(7))
	corrupt(f, rng, 15)
	f.k.RunFor(2000 * unit)

	// After convergence, primary pointers exist only on the true path.
	f.assertPathReachesEvader(t)
	onPath := make(map[hier.ClusterID]bool)
	cur := f.h.Root()
	for {
		onPath[cur] = true
		c, _, _, _ := f.net.Process(cur).Pointers()
		if c == cur || c == hier.NoCluster {
			break
		}
		cur = c
	}
	for id := 0; id < f.h.NumClusters(); id++ {
		if onPath[hier.ClusterID(id)] {
			continue
		}
		c, p, _, _ := f.net.Process(hier.ClusterID(id)).Pointers()
		if c != hier.NoCluster || p != hier.NoCluster {
			t.Errorf("off-path garbage survives at %v: c=%v p=%v", hier.ClusterID(id), c, p)
		}
	}
}

func TestStabilizationWithConcurrentMoves(t *testing.T) {
	f := newFixture(t, fixtureConfig{side: 8, start: 9, heartbeat: 8 * unit, tRestart: unit})
	f.k.RunFor(100 * unit)
	rng := rand.New(rand.NewSource(3))
	corrupt(f, rng, 12)

	// The evader keeps moving while the structure stabilizes.
	for i := 0; i < 6; i++ {
		nbrs := f.tiling.Neighbors(f.ev.Region())
		if err := f.ev.MoveTo(nbrs[rng.Intn(len(nbrs))]); err != nil {
			t.Fatal(err)
		}
		f.k.RunFor(100 * unit)
	}
	f.k.RunFor(1500 * unit)
	f.assertPathReachesEvader(t)
	id, err := f.net.Find(f.tiling.RegionAt(0, 7))
	if err != nil {
		t.Fatal(err)
	}
	f.k.RunFor(600 * unit)
	if !f.net.FindDone(id) {
		t.Fatal("find did not complete after stabilization under movement")
	}
}

// Without heartbeats there is no stabilization machinery: corruption can
// permanently break the structure (this is the motivating negative).
func TestNoStabilizationWithoutHeartbeat(t *testing.T) {
	f := newFixture(t, fixtureConfig{side: 8, start: 9, alwaysUp: true})
	f.settle()
	// Sever the path at its bottom: reset the evader's level-0 and level-1
	// processes and scrub every secondary pointer referencing them, as a
	// VSA reset would. Nothing repairs this without heartbeats.
	for lvl := 0; lvl <= 1; lvl++ {
		c := f.h.Cluster(f.ev.Region(), lvl)
		f.net.Process(c).reset()
		for _, nb := range f.h.Nbrs(c) {
			pr := f.net.Process(nb)
			withState(pr, DefaultObject, func(st *objState) {
				if pr.cluster(st.nbrptup) == c {
					st.nbrptup = hoodNone
				}
				if pr.cluster(st.nbrptdown) == c {
					st.nbrptdown = hoodNone
				}
			})
		}
	}
	id, err := f.net.Find(f.tiling.RegionAt(7, 7))
	if err != nil {
		t.Fatal(err)
	}
	f.k.RunFor(1000 * unit)
	if f.net.FindDone(id) {
		t.Fatal("find completed through a severed path without any repair machinery")
	}
}
