package core_test

import (
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"vinestalk/internal/cgcast"
	"vinestalk/internal/core"
	"vinestalk/internal/evader"
	"vinestalk/internal/geo"
	"vinestalk/internal/tracker"
)

// BenchmarkMultiObject measures the service at production fan-out: k
// tracked objects multiplexed over one 16x16 hierarchy with batched
// C-gcast. One iteration attaches k objects (k concurrent grow cascades),
// runs three rounds of concurrent sampled moves, and one round of
// concurrent sampled finds. Beyond ns/op it reports:
//
//	objects/s    — attach throughput: k objects over the attach+settle wall clock
//	bytes/region — mean settled EncodeRegion size (the per-region object
//	               tables; quiescence eviction keeps this proportional to
//	               the objects actually rooted through each region)
//	frames/round — ledger cgcast frames per settle round (batching pays
//	               one frame per edge per round, not one per object)
//
// Each fan-out level runs twice — batched and unbatched (frame accounting
// only) — so the ratio of the two frames/round readings is the measured
// batching gain. cmd/bench parses these into BENCH_9.json as the
// multi-object scaling curve, gates on the gain at the largest k (frame
// counts are deterministic, so the gate holds even at -benchtime 1x), and
// gates objects/s monotone non-decreasing across the fan-out levels — the
// bulk-attach promise that amortizing cascades over co-located objects only
// gets better as the population grows.
func BenchmarkMultiObject(b *testing.B) {
	for _, k := range []int{1000, 10000, 100000} {
		for _, mode := range []string{"batched", "unbatched"} {
			batch := mode == "batched"
			b.Run(fmt.Sprintf("objects=%d/%s", k, mode), func(b *testing.B) {
				var objsPerSec, bytesPerRegion, framesPerRound float64
				for i := 0; i < b.N; i++ {
					o, bpr, fpr := multiObjectIteration(b, k, batch)
					objsPerSec, bytesPerRegion, framesPerRound = o, bpr, fpr
				}
				b.ReportMetric(objsPerSec, "objects/s")
				b.ReportMetric(bytesPerRegion, "bytes/region")
				b.ReportMetric(framesPerRound, "frames/round")
			})
		}
	}
}

// BenchmarkBulkAttach is the tentpole's head-to-head: k objects clustered
// into a handful of regions (the path-dedup sweet spot — a parking lot, a
// depot), attached either one grow cascade at a time (sequential) or in one
// AttachObjects pass (bulk). Both sides end in the identical settled
// machine (TestBulkAttachMatchesSequential* prove byte-identity), so
// objects/s is the only honest difference. cmd/bench computes the ratio
// into BENCH_9.json as bulk_attach_speedup and gates it ≥ 5× by default.
func BenchmarkBulkAttach(b *testing.B) {
	const k = 10000
	for _, mode := range []string{"sequential", "bulk"} {
		b.Run(fmt.Sprintf("objects=%d/%s", k, mode), func(b *testing.B) {
			var objsPerSec float64
			for i := 0; i < b.N; i++ {
				objsPerSec = bulkAttachIteration(b, k, mode == "bulk")
			}
			b.ReportMetric(objsPerSec, "objects/s")
		})
	}
}

// BenchmarkParallelTracker measures the replica-stack parallel tracker
// (core.NewParallel) against itself across engine shard counts: the same
// k-object population is attached (untimed setup), then every object moves
// to a neighbor and the engine settles — one full-population cascade round,
// timed. events/s is executed engine events over the timed wall clock, so
// the K=8 ÷ K=1 ratio is the tracker-level speedup cmd/bench gates into
// BENCH_10.json. K=1 runs the identical replica machinery on one shard, so
// the ratio isolates what sharding buys (smaller per-stack tables, maps and
// heaps, and K-way concurrent execution) with the workload held fixed — and the
// identity suite (TestParallelTrackerByteIdentity) proves every K computes
// the same results. The default population is 2²⁰ objects because smaller
// ones left the K=8 ÷ K=1 ratio too close to the 2× floor of the cmd/bench
// gate (524288 measured 1.8–2.4× across sessions on a single-core box).
// K=1 is slower than 1/K of the work explains, and not because of the
// kernel, which is a 4-ary heap: until PR 14 the one K=1 stack paid O(rows)
// per insert and remove in tracker.objTable (a sorted []*objState of up to
// 2²⁰ rows at the upper-level processes; per-stack tables are K× smaller)
// and a MoveQuiescent scan of every row per Settle. With the paged value-row
// table the curve on one 2-vCPU box went from 149k / 479k / 478k / 591k
// events/s (K=8 ÷ K=1 = 3.96×) to 219k / 646k / 694k / 722k (3.30×): K=1
// gained 1.47× and the ratio shrank. What remains of the K=1 → K=2 step
// (2.95× on two cores) is the single stack's multi-GB heap and the maps that
// hold an entry per in-flight message (allocator zeroing 24 %, map probes
// 12 %, GC scanning 11 % of the K=1 profile), not a sorted structure.
// VINESTALK_PARTRACKER_OBJECTS overrides the population for smoke runs.
func BenchmarkParallelTracker(b *testing.B) {
	k := 1048576
	if s := os.Getenv("VINESTALK_PARTRACKER_OBJECTS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			b.Fatalf("VINESTALK_PARTRACKER_OBJECTS=%q: %v", s, err)
		}
		k = v
	}
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("K=%d", shards), func(b *testing.B) {
			var eventsPerSec float64
			for i := 0; i < b.N; i++ {
				eventsPerSec = parallelTrackerIteration(b, k, shards)
			}
			b.ReportMetric(eventsPerSec, "events/s")
		})
	}
}

// parallelTrackerIteration builds and populates a K-shard parallel tracker
// (untimed) and times one full-population move round, returning engine
// events per second of the timed phase.
func parallelTrackerIteration(b *testing.B, k, shards int) float64 {
	b.Helper()
	b.StopTimer()
	const side = 16
	cfg := core.Config{
		Width:           side,
		AlwaysAliveVSAs: true,
		Start:           geo.RegionID(side*side/2 + side/2),
		Seed:            11,
		FormulaGeometry: true,
		ParallelTracker: shards,
	}
	ps, err := core.NewParallel(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := ps.Settle(); err != nil {
		b.Fatal(err)
	}
	regions := ps.Tiling().NumRegions()
	placements := make([]core.ObjectPlacement, 0, k-1)
	for obj := tracker.ObjectID(1); int(obj) < k; obj++ {
		placements = append(placements, core.ObjectPlacement{
			Obj:   obj,
			Start: geo.RegionID((int(obj) * 37) % regions),
		})
	}
	evaders, err := ps.AddObjects(placements)
	if err != nil {
		b.Fatal(err)
	}
	if err := ps.Settle(); err != nil {
		b.Fatal(err)
	}
	stepsBefore := ps.Steps()

	b.StartTimer()
	start := time.Now()
	for _, p := range placements {
		ev := evaders[p.Obj]
		nbrs := ps.Tiling().Neighbors(ev.Region())
		if err := ev.MoveTo(nbrs[int(p.Obj)%len(nbrs)]); err != nil {
			b.Fatal(err)
		}
	}
	if err := ps.Settle(); err != nil {
		b.Fatal(err)
	}
	elapsed := time.Since(start)
	b.StopTimer()
	events := ps.Steps() - stepsBefore
	b.StartTimer() // leave the timer running for the harness accounting
	return float64(events) / elapsed.Seconds()
}

// bulkAttachIteration attaches k objects clustered into 8 regions via the
// requested path and returns attach throughput over the attach+settle wall
// clock.
func bulkAttachIteration(b *testing.B, k int, bulk bool) float64 {
	b.Helper()
	const side = 16
	svc, err := core.New(core.Config{
		Width:           side,
		AlwaysAliveVSAs: true,
		Start:           geo.RegionID(side*side/2 + side/2),
		Seed:            11,
		BatchCgcast:     true,
	})
	if err != nil {
		b.Fatal(err)
	}
	clusters := []geo.RegionID{9, 21, 100, 130, 177, 200, 233, 250}
	start := time.Now()
	if bulk {
		placements := make([]core.ObjectPlacement, k)
		for i := range placements {
			placements[i] = core.ObjectPlacement{
				Obj:   tracker.ObjectID(i + 1),
				Start: clusters[i%len(clusters)],
			}
		}
		if _, err := svc.AddObjects(placements); err != nil {
			b.Fatal(err)
		}
	} else {
		for i := 0; i < k; i++ {
			if _, err := svc.AddObject(tracker.ObjectID(i+1), clusters[i%len(clusters)]); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := svc.Settle(); err != nil {
		b.Fatal(err)
	}
	return float64(k) / time.Since(start).Seconds()
}

// multiObjectIteration runs one full fan-out workload and returns the three
// reported metrics.
func multiObjectIteration(b *testing.B, k int, batch bool) (objsPerSec, bytesPerRegion, framesPerRound float64) {
	b.Helper()
	const side = 16
	svc, err := core.New(core.Config{
		Width:           side,
		AlwaysAliveVSAs: true,
		Start:           geo.RegionID(side*side/2 + side/2),
		Seed:            11,
		BatchCgcast:     batch,
		CountFrames:     !batch,
	})
	if err != nil {
		b.Fatal(err)
	}

	// Attach phase: k-1 extra objects scattered deterministically over every
	// region, planted in one bulk pass (one grow cascade per distinct start
	// region, splice for the rest).
	attachStart := time.Now()
	evaders := map[tracker.ObjectID]*evader.Evader{tracker.DefaultObject: svc.Evader()}
	regions := svc.Tiling().NumRegions()
	placements := make([]core.ObjectPlacement, 0, k-1)
	for obj := tracker.ObjectID(1); int(obj) < k; obj++ {
		placements = append(placements, core.ObjectPlacement{
			Obj:   obj,
			Start: geo.RegionID((int(obj) * 37) % regions),
		})
	}
	added, err := svc.AddObjects(placements)
	if err != nil {
		b.Fatal(err)
	}
	for obj, ev := range added {
		evaders[obj] = ev
	}
	if err := svc.Settle(); err != nil {
		b.Fatal(err)
	}
	objsPerSec = float64(k) / time.Since(attachStart).Seconds()
	rounds := 1

	// Move phase: three rounds of concurrent sampled moves.
	sample := sampleObjects(k, 64)
	for round := 0; round < 3; round++ {
		for _, obj := range sample {
			ev := evaders[obj]
			nbrs := svc.Tiling().Neighbors(ev.Region())
			if err := ev.MoveTo(nbrs[(int(obj)+round)%len(nbrs)]); err != nil {
				b.Fatal(err)
			}
		}
		if err := svc.Settle(); err != nil {
			b.Fatal(err)
		}
		rounds++
	}

	// Find phase: concurrent finds for the sampled objects from one corner.
	ids := make([]tracker.FindID, 0, len(sample))
	for _, obj := range sample {
		id, err := svc.FindObject(geo.RegionID(0), obj)
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := svc.Settle(); err != nil {
		b.Fatal(err)
	}
	rounds++
	for _, id := range ids {
		if !svc.FindDone(id) {
			b.Fatalf("find %d never completed", id)
		}
	}

	var stateBytes int
	aut := svc.Network().Automaton()
	for u := 0; u < regions; u++ {
		stateBytes += len(aut.EncodeRegion(geo.RegionID(u)))
	}
	bytesPerRegion = float64(stateBytes) / float64(regions)
	framesPerRound = float64(svc.Ledger().Snapshot().MsgCount[cgcast.FrameKind]) / float64(rounds)
	return objsPerSec, bytesPerRegion, framesPerRound
}

// sampleObjects picks a deterministic spread of n object ids out of k
// (including the default object when it lands on stride 0).
func sampleObjects(k, n int) []tracker.ObjectID {
	if n > k {
		n = k
	}
	out := make([]tracker.ObjectID, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, tracker.ObjectID(i*k/n))
	}
	return out
}
