package chaos_test

import (
	"reflect"
	"testing"
	"time"

	"vinestalk/internal/chaos"
	"vinestalk/internal/core"
	"vinestalk/internal/evader"
	"vinestalk/internal/geo"
	"vinestalk/internal/tracker"
)

const unit = 15 * time.Millisecond

// jitterWalk runs a full tracking service under delay jitter, checking
// Theorem 4.8 at every quiescent point and replaying every found output,
// and returns the checker plus summary state for determinism comparisons.
func jitterWalk(t *testing.T, seed int64) (*chaos.Checker, []geo.RegionID, []tracker.FindResult) {
	t.Helper()
	var ck *chaos.Checker
	svc, err := core.New(core.Config{
		Width:           8,
		AlwaysAliveVSAs: true,
		Start:           geo.RegionID(9),
		Seed:            seed,
		Chaos:           &chaos.Config{Seed: seed, DelayJitter: true},
		OnFound: func(r tracker.FindResult) {
			if ck != nil {
				ck.OnFound(r)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Settle(); err != nil {
		t.Fatal(err)
	}
	ck = chaos.NewChecker(svc.Kernel(), svc.Network(), svc.Evader())
	trail := []geo.RegionID{svc.Evader().Region()}
	svc.Evader().Observe(func(_, to geo.RegionID) { trail = append(trail, to) })
	model := evader.RandomWalk{Tiling: svc.Tiling()}
	for i := 0; i < 12; i++ {
		next := model.Next(svc.Kernel().Rand(), svc.Evader().Region())
		if err := svc.MoveEvader(next); err != nil {
			t.Fatal(err)
		}
		if err := svc.Settle(); err != nil {
			t.Fatal(err)
		}
		ck.CheckQuiescent()
		if i%4 == 3 {
			if _, err := svc.Find(svc.Tiling().RegionAt(7, 7)); err != nil {
				t.Fatal(err)
			}
			if err := svc.Settle(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return ck, trail, svc.Founds()
}

// Under sampled delays in [0,δ]/[0,e] the protocol must still satisfy the
// atomic specification at every quiescent point — the tentpole's core
// claim: jitter explores legal schedules, not illegal ones.
func TestJitteredExecutionSatisfiesSpec(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		ck, _, founds := jitterWalk(t, seed)
		if ck.Count() != 0 {
			t.Errorf("seed %d: %d violations under jitter: %v", seed, ck.Count(), ck.Violations())
		}
		if len(founds) != 3 {
			t.Errorf("seed %d: %d founds, want 3", seed, len(founds))
		}
	}
}

// The same seed must reproduce the identical perturbed execution.
func TestJitteredExecutionDeterministic(t *testing.T) {
	_, trailA, foundsA := jitterWalk(t, 7)
	_, trailB, foundsB := jitterWalk(t, 7)
	if !reflect.DeepEqual(trailA, trailB) {
		t.Errorf("trails differ across same-seed runs:\n%v\n%v", trailA, trailB)
	}
	if !reflect.DeepEqual(foundsA, foundsB) {
		t.Errorf("founds differ across same-seed runs:\n%+v\n%+v", foundsA, foundsB)
	}
}

// Crash windows with drops and churn, then stabilization: after the
// horizon the heartbeat extension must heal the structure within a bounded
// time, and probe finds must complete and answer correctly.
func TestCrashScheduleStabilizes(t *testing.T) {
	const horizon = 150 * unit
	var ck *chaos.Checker
	svc, err := core.New(core.Config{
		Width:     8,
		Start:     geo.RegionID(9),
		Seed:      5,
		TRestart:  2 * unit,
		Heartbeat: 8 * unit,
		Chaos: &chaos.Config{
			Seed:         5,
			DelayJitter:  true,
			CrashWindows: 2,
			CrashLen:     20 * unit,
			ChurnClients: 2,
			ChurnPeriod:  10 * unit,
			DropProb:     0.2,
			Horizon:      horizon,
		},
		OnFound: func(r tracker.FindResult) {
			if ck != nil {
				ck.OnFound(r)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ck = chaos.NewChecker(svc.Kernel(), svc.Network(), svc.Evader())
	// Walk through the fault period.
	model := evader.RandomWalk{Tiling: svc.Tiling()}
	for svc.Kernel().Now() < horizon {
		next := model.Next(svc.Kernel().Rand(), svc.Evader().Region())
		if err := svc.MoveEvader(next); err != nil {
			t.Fatal(err)
		}
		svc.RunFor(10 * unit)
	}
	// Faults have ceased; give the heartbeat extension its healing time.
	svc.RunFor(600 * unit)
	// Stabilization probes: finds from the far corner must now complete
	// and answer a region the evader occupied during the find.
	for i := 0; i < 3; i++ {
		id, err := svc.Find(svc.Tiling().RegionAt(7, 7))
		if err != nil {
			t.Fatal(err)
		}
		svc.RunFor(400 * unit)
		if !svc.FindDone(id) {
			t.Fatalf("probe find %d did not complete after stabilization", i)
		}
	}
	if ck.Count() != 0 {
		t.Errorf("%d spec violations: %v", ck.Count(), ck.Violations())
	}
}
