package experiments

import (
	"reflect"
	"strings"
	"testing"

	"vinestalk/internal/core"
	"vinestalk/internal/evader"
	"vinestalk/internal/metrics"
)

// walkScenario is the representative seed-determinism workload: a settled
// service, a seeded random walk, and a corner find, reduced to a rendered
// table and the final ledger snapshot.
func walkScenario() (string, metrics.Snapshot, error) {
	svc, err := core.New(core.Config{
		Width:           16,
		AlwaysAliveVSAs: true,
		Start:           centerRegion(16),
		Seed:            97,
	})
	if err != nil {
		return "", metrics.Snapshot{}, err
	}
	if err := svc.Settle(); err != nil {
		return "", metrics.Snapshot{}, err
	}
	model := evader.RandomWalk{Tiling: svc.Tiling()}
	res := &Result{Table: Table{
		ID:      "DET",
		Title:   "seed determinism probe",
		Columns: []string{"step", "work", "elapsed"},
	}}
	for i := 0; i < 12; i++ {
		next := model.Next(svc.Kernel().Rand(), svc.Evader().Region())
		_, w, dt, err := svc.MoveStats(next)
		if err != nil {
			return "", metrics.Snapshot{}, err
		}
		res.Table.AddRow(i, w, dt)
	}
	_, fw, lat, err := svc.FindStats(svc.Tiling().RegionAt(0, 0))
	if err != nil {
		return "", metrics.Snapshot{}, err
	}
	res.Table.AddRow("find", fw, lat)
	var b strings.Builder
	res.Render(&b)
	return b.String(), svc.Ledger().Snapshot(), nil
}

// The sweep engine must not perturb simulation results: the same seeded
// scenario run sequentially and as parallel sweep cells yields identical
// rendered tables and identical ledger snapshots.
func TestSweepSeedDeterminism(t *testing.T) {
	wantTable, wantSnap, err := walkScenario()
	if err != nil {
		t.Fatal(err)
	}
	const copies = 4
	type out struct {
		table string
		snap  metrics.Snapshot
	}
	jobs := make([]int, copies)
	got, err := cells(Env{Workers: copies}, jobs, func(int) (out, error) {
		table, snap, err := walkScenario()
		return out{table: table, snap: snap}, err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range got {
		if o.table != wantTable {
			t.Errorf("cell %d rendered table differs from sequential run:\n--- sequential\n%s\n--- cell\n%s",
				i, wantTable, o.table)
		}
		if !reflect.DeepEqual(o.snap, wantSnap) {
			t.Errorf("cell %d ledger snapshot differs from sequential run:\nsequential: %+v\ncell:       %+v",
				i, wantSnap, o.snap)
		}
	}
}

// quickOutput renders the selected quick experiments (all when only is
// empty) on the given worker count.
func quickOutput(t *testing.T, only []string, workers int) string {
	t.Helper()
	var b strings.Builder
	if err := RunAll(&b, Options{Quick: true, Only: only, Parallel: workers}); err != nil {
		t.Fatalf("%v at %d workers: %v", only, workers, err)
	}
	return b.String()
}

// The full quick suite must render byte-identically at any worker count —
// the determinism invariant of DESIGN.md §2 extended to the parallel
// harness.
func TestRunAllByteIdenticalAcrossWorkers(t *testing.T) {
	sequential := quickOutput(t, nil, 1)
	for _, workers := range []int{2, 8} {
		if got := quickOutput(t, nil, workers); got != sequential {
			t.Errorf("output at %d workers differs from sequential run", workers)
		}
	}
}

// Determinism guard for the zero-alloc kernel and the epoch-cached
// failover routing: the experiments that stress them hardest — E1/E2
// (event-kernel hot loops regenerating the theorem tables) and E7/E11 (the
// crash regimes, where every hop of every message may take the failover
// path) — must render byte-identically at any worker count. The rendered
// tables embed every measured quantity, so any perturbation from the event
// arena, the 4-ary heap, or a stale route-cache entry would surface as a
// byte difference here.
func TestKernelAndRouteCacheExperimentsByteIdentical(t *testing.T) {
	only := []string{"E1", "E2", "E7", "E11"}
	sequential := quickOutput(t, only, 1)
	if got := quickOutput(t, only, 8); got != sequential {
		t.Errorf("E1/E2/E7/E11 output at 8 workers differs from sequential run:\n--- parallel 1\n%s\n--- parallel 8\n%s",
			sequential, got)
	}
}

// The multi-object experiment exercises every per-object surface at once —
// the sorted object table, per-object eviction, object-addressed finds —
// with k up to 4 concurrent objects. Its rendered table must be
// byte-identical at any worker count: any nondeterminism in the per-region
// object tables (iteration order, eviction timing, batched frame ordering)
// would perturb the measured work columns and surface as a byte difference
// here.
func TestMultiObjectExperimentByteIdentical(t *testing.T) {
	only := []string{"E8"}
	sequential := quickOutput(t, only, 1)
	if got := quickOutput(t, only, 8); got != sequential {
		t.Errorf("E8 output at 8 workers differs from sequential run:\n--- parallel 1\n%s\n--- parallel 8\n%s",
			sequential, got)
	}
}
