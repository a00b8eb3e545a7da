package experiments

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"vinestalk/internal/cgcast"
	"vinestalk/internal/core"
	"vinestalk/internal/evader"
	"vinestalk/internal/geo"
	"vinestalk/internal/hier"
	"vinestalk/internal/lookahead"
	"vinestalk/internal/metrics"
	"vinestalk/internal/sim"
	"vinestalk/internal/tracker"
)

// E13Scale drives the §VII multiple-objects extension at production
// fan-out: up to 10^6 objects multiplexed over one hierarchy, planted by
// one bulk attach (core.Service.AddObjects — one grow cascade per distinct
// start region, splice for every co-located object), then exercised with
// concurrent moves and concurrent finds. At this scale the paper's
// per-object claims are checked by sampling, and the engineering claims of
// the fan-out work are measured directly:
//
//   - bulk attach ≡ sequential: at the smallest k the whole sweep is run
//     both ways and every region's canonical encoding must match byte for
//     byte — the license for using the bulk path at the ks where
//     sequential attach is no longer feasible (attach *throughput* is
//     wall-clock and is BENCHMARK.json's tracker.attach_objects_per_s,
//     not a column here: these tables render byte-identically at any
//     worker count, so every column is virtual-time or count valued);
//   - parallel tracker ≡ sequential: at the smallest k the same workload
//     runs on core.NewParallel replica stacks at K ∈ {1, 4} and must
//     reproduce the sequential run's founds and every region's encoding
//     byte for byte, with the engine step count invariant in K — the
//     license for the "par events" column;
//   - sampled Theorem 4.8: for a fixed sample of objects, the settled
//     per-object state vector look-aheads to atomicMoveSeq of that
//     object's trail — fan-out does not perturb any object's structure;
//   - Theorem 4.9 shape: the sampled objects walk identical routes at
//     every k, so their measured per-move work must be identical across
//     the sweep (independence), and each concurrent-move round must
//     settle within the non-amortized one-move bound O(D·(δ+e)) — k-way
//     fan-out stretches neither the work nor the time of a move;
//   - batched C-gcast pays per (edge, round), not per object: the run
//     repeats unbatched (frame accounting only) up to k = 10240, and the
//     frame gain must grow across those measured cells; larger cells skip
//     the second full attach and print "-" (per-layer frame counts at
//     2^17 objects are in BENCHMARK.json);
//   - region state stays proportional to rooted objects: mean settled
//     EncodeRegion size is reported per k (quiescence eviction keeps the
//     tables compact; see DESIGN.md §8).
func E13Scale(env Env) (*Result, error) {
	counts := []int{1024, 10_240, 102_400, 1_024_000}
	if env.Quick {
		counts = []int{256, 1024}
	}
	res := &Result{Table: Table{
		ID:    "E13",
		Title: "multi-object tracking at production fan-out (§VII)",
		Claim: "10^6 objects over one hierarchy via bulk attach: per-object structures stay independent " +
			"(Thm 4.8/4.9 sampled), batched C-gcast pays per edge-round instead of per object, " +
			"and the workload runs unchanged on the K-shard parallel tracker",
		Columns: []string{"objects", "frames batched", "frames unbatched", "frame gain",
			"bytes/region", "move work/step", "round time max",
			fmt.Sprintf("par events (K=%d)", scaleParK),
			"finds ok", "Thm 4.8 samples"},
	}}

	type point struct {
		k           int
		stats       scaleStats
		plainFrames int64  // 0 = unbatched twin not run at this k
		parSteps    uint64 // 0 = parallel twin not run at this k
	}
	points, err := cells(env, counts, func(k int) (point, error) {
		batched, err := runScaleWorkload(k, true)
		if err != nil {
			return point{}, fmt.Errorf("k=%d batched: %w", k, err)
		}
		p := point{k: k, stats: batched}
		if k <= scaleUnbatchedMax {
			plain, err := runScaleWorkload(k, false)
			if err != nil {
				return point{}, fmt.Errorf("k=%d unbatched: %w", k, err)
			}
			p.plainFrames = plain.frames
			ps, err := newScalePar(scaleParK)
			if err != nil {
				return point{}, fmt.Errorf("k=%d parallel: %w", k, err)
			}
			par, err := driveScale(ps, k)
			if err != nil {
				return point{}, fmt.Errorf("k=%d parallel: %w", k, err)
			}
			p.parSteps = par.steps
		}
		return p, nil
	})
	if err != nil {
		return nil, err
	}

	for _, p := range points {
		var unbatched, gain, parEvents any = "-", "-", "-"
		if p.plainFrames > 0 {
			unbatched, gain = p.plainFrames, float64(p.plainFrames)/float64(p.stats.frames)
			parEvents = p.parSteps
		}
		res.Table.AddRow(p.k, p.stats.frames, unbatched, gain,
			p.stats.bytesPerRegion, float64(p.stats.moveWork)/float64(p.stats.moveSteps),
			p.stats.roundMax, parEvents,
			fmt.Sprintf("%d/%d", p.stats.findsOK, p.stats.findsAll),
			fmt.Sprintf("%d/%d", p.stats.thm48OK, p.stats.thm48All))
	}

	// Bulk ≡ sequential, proven where sequential is still affordable: the
	// smallest k is attached both ways and every region's canonical encoding
	// must match byte for byte.
	eqK := counts[0]
	same, detail, err := bulkMatchesSequential(eqK)
	if err != nil {
		return nil, err
	}
	res.check(fmt.Sprintf("k=%d: bulk attach byte-identical to sequential", eqK), same, "%s", detail)

	// Parallel tracker ≡ sequential at the smallest k, across K — the
	// identity proof behind the "par events" column.
	parOK, parDetail, err := parallelMatchesSequential(eqK)
	if err != nil {
		return nil, err
	}
	res.check(fmt.Sprintf("k=%d: parallel tracker byte-identical across K ∈ {1, %d}", eqK, scaleParK),
		parOK, "%s", parDetail)

	for _, p := range points {
		res.check(fmt.Sprintf("k=%d: sampled Theorem 4.8 holds", p.k),
			p.stats.thm48OK == p.stats.thm48All, "%d/%d sampled objects look-ahead to their atomicMoveSeq",
			p.stats.thm48OK, p.stats.thm48All)
		res.check(fmt.Sprintf("k=%d: concurrent finds object-accurate", p.k),
			p.stats.findsOK == p.stats.findsAll, "%d/%d", p.stats.findsOK, p.stats.findsAll)
		if p.plainFrames > 0 {
			res.check(fmt.Sprintf("k=%d: batching beats %d independent sends (measured)", p.k, p.k),
				p.stats.frames < p.plainFrames, "%d frames batched vs %d unbatched",
				p.stats.frames, p.plainFrames)
		}
		// Non-amortized Theorem 4.9 time bound for one move, applied to a
		// whole concurrent round: moves are independent, so fan-out must not
		// stretch the settle window past the single-move bound.
		d := scaleSide - 1
		bound := 8 * time.Duration(d) * scaleUnit
		res.check(fmt.Sprintf("k=%d: move rounds within one-move bound", p.k),
			p.stats.roundMax <= bound, "slowest round %v <= 8·D·(δ+e) = %v",
			p.stats.roundMax.Round(time.Millisecond), bound)
	}
	// Theorem 4.9 independence: the sampled objects start at the same
	// regions and walk the same routes at every k, so their measured move
	// work is the same numbers regardless of how many other objects share
	// the hierarchy.
	minW, maxW := points[0].stats.moveWork, points[0].stats.moveWork
	for _, p := range points[1:] {
		if p.stats.moveWork < minW {
			minW = p.stats.moveWork
		}
		if p.stats.moveWork > maxW {
			maxW = p.stats.moveWork
		}
	}
	res.check("per-move work independent of fan-out", minW == maxW,
		"sampled move work %d..%d across k sweep", minW, maxW)
	// The batching win must grow with fan-out: more objects share each
	// (edge, round), so the frame gain at the largest measured k exceeds
	// the gain at the smallest.
	first, last := points[0], points[0]
	for _, p := range points {
		if p.plainFrames > 0 {
			last = p
		}
	}
	gainFirst := float64(first.plainFrames) / float64(first.stats.frames)
	gainLast := float64(last.plainFrames) / float64(last.stats.frames)
	res.check("frame gain grows with fan-out", gainLast > gainFirst,
		"gain %.2fx at k=%d vs %.2fx at k=%d", gainFirst, first.k, gainLast, last.k)
	return res, nil
}

const (
	scaleSide = 16                    // grid side of every E13 cell
	scaleUnit = 15 * time.Millisecond // default δ+e of core.Config
	// scaleUnbatchedMax is the largest k that still runs its unbatched twin
	// and parallel twin; larger cells skip the second and third full attach.
	scaleUnbatchedMax = 10_240
	// scaleParK is the engine shard count of the parallel twin.
	scaleParK = 4
)

// scalePlacements is the E13 population: k-1 extra objects scattered
// deterministically over every region (37 is coprime to the region count,
// so all distinct paths are exercised).
func scalePlacements(k, regions int) []core.ObjectPlacement {
	placements := make([]core.ObjectPlacement, 0, k-1)
	for obj := tracker.ObjectID(1); int(obj) < k; obj++ {
		placements = append(placements, core.ObjectPlacement{
			Obj:   obj,
			Start: geo.RegionID((int(obj) * 37) % regions),
		})
	}
	return placements
}

// scaleSample is the fixed object sample driven through moves and finds —
// the same ids at every k, so sampled measurements are comparable (and for
// work, equal) across the sweep.
func scaleSample(k int) []tracker.ObjectID {
	sample := make([]tracker.ObjectID, 0, 32)
	for i := 0; i < 32 && i < k; i++ {
		sample = append(sample, tracker.ObjectID(i))
	}
	return sample
}

// scaleSvc is what the E13 workload needs of either service type.
type scaleSvc interface {
	AddObjects([]core.ObjectPlacement) (map[tracker.ObjectID]*evader.Evader, error)
	FindObject(geo.RegionID, tracker.ObjectID) (tracker.FindID, error)
	Settle() error
	Tiling() *geo.GridTiling
	Hierarchy() *hier.Hierarchy
	Evader() *evader.Evader
	Founds() []tracker.FindResult
	Now() sim.Time
	Steps() uint64
	EncodeRegion(geo.RegionID) ([]byte, error)
	snapshot() metrics.Snapshot
}

type seqScale struct{ *core.Service }

func (s seqScale) Now() sim.Time              { return s.Kernel().Now() }
func (s seqScale) Steps() uint64              { return s.Kernel().Steps() }
func (s seqScale) snapshot() metrics.Snapshot { return s.Ledger().Snapshot() }
func (s seqScale) EncodeRegion(u geo.RegionID) ([]byte, error) {
	return s.Network().Automaton().EncodeRegion(u), nil
}

type parScale struct{ *core.ParallelService }

func (p parScale) snapshot() metrics.Snapshot { return p.MergedLedger().Snapshot() }
func (p parScale) Hierarchy() *hier.Hierarchy { return p.Stack(0).Hierarchy() }

// scaleRun is what one run of the E13 workload leaves behind, on either
// service type.
type scaleRun struct {
	sampled   []*evader.Evader  // evaders of scaleSample(k), in sample order
	specs     []*lookahead.Fold // atomicMoveSeq of each sampled evader's moves
	frames    int64             // cgcast.FrameKind messages over the whole run
	moveWork  int64             // proto hop work of the move rounds
	moveSteps int               // sampled moves performed
	roundMax  time.Duration     // slowest concurrent-move round (virtual)
	findsOK   int
	findsAll  int
	steps     uint64
	founds    []tracker.FindResult // in find-id order
}

// driveScale attaches k objects in one bulk pass and runs two
// concurrent-move rounds and one concurrent-find round over the fixed
// sample.
func driveScale(svc scaleSvc, k int) (scaleRun, error) {
	var run scaleRun
	added, err := svc.AddObjects(scalePlacements(k, svc.Tiling().NumRegions()))
	if err != nil {
		return scaleRun{}, err
	}
	if err := svc.Settle(); err != nil {
		return scaleRun{}, err
	}
	added[tracker.DefaultObject] = svc.Evader()
	sample := scaleSample(k)
	for _, obj := range sample {
		run.sampled = append(run.sampled, added[obj])
		run.specs = append(run.specs, lookahead.Follow(svc.Hierarchy(), added[obj]))
	}

	beforeMoves := svc.snapshot()
	for round := 0; round < 2; round++ {
		start := svc.Now()
		for i, obj := range sample {
			ev := run.sampled[i]
			nbrs := svc.Tiling().Neighbors(ev.Region())
			if err := ev.MoveTo(nbrs[(int(obj)+round)%len(nbrs)]); err != nil {
				return scaleRun{}, err
			}
			run.moveSteps++
		}
		if err := svc.Settle(); err != nil {
			return scaleRun{}, err
		}
		if elapsed := time.Duration(svc.Now() - start); elapsed > run.roundMax {
			run.roundMax = elapsed
		}
	}
	run.moveWork = protoWork(svc.snapshot().Sub(beforeMoves))

	// Concurrent finds for every sampled object from one corner, all in
	// flight in the same settle window.
	ids := make(map[tracker.FindID]*evader.Evader, len(sample))
	for i, obj := range sample {
		id, err := svc.FindObject(geo.RegionID(0), obj)
		if err != nil {
			return scaleRun{}, err
		}
		ids[id] = run.sampled[i]
	}
	if err := svc.Settle(); err != nil {
		return scaleRun{}, err
	}
	run.findsAll = len(ids)
	run.founds = svc.Founds()
	sort.Slice(run.founds, func(i, j int) bool { return run.founds[i].ID < run.founds[j].ID })
	for _, r := range run.founds {
		if ev, ok := ids[r.ID]; ok && r.FoundAt == ev.Region() {
			run.findsOK++
		}
	}

	run.steps = svc.Steps()
	run.frames = svc.snapshot().MsgCount[cgcast.FrameKind]
	return run, nil
}

// scaleEncodings returns the settled canonical encoding of every region.
func scaleEncodings(svc scaleSvc) ([][]byte, error) {
	encs := make([][]byte, svc.Tiling().NumRegions())
	for u := range encs {
		enc, err := svc.EncodeRegion(geo.RegionID(u))
		if err != nil {
			return nil, fmt.Errorf("region %d: %w", u, err)
		}
		encs[u] = enc
	}
	return encs, nil
}

// scaleStats is one sequential E13 run plus what only the sequential
// service can check: the sampled Theorem 4.8 look-aheads.
type scaleStats struct {
	scaleRun
	thm48OK        int
	thm48All       int
	bytesPerRegion float64 // mean settled EncodeRegion size
}

// newScaleSeq builds the sequential E13 service. batch selects batched
// C-gcast; the unbatched service still counts frames (one per
// message-target send) so the two compare the same quantity.
func newScaleSeq(batch bool) (seqScale, error) {
	svc, err := core.New(core.Config{
		Width:           scaleSide,
		AlwaysAliveVSAs: true,
		Start:           centerRegion(scaleSide),
		Seed:            11,
		BatchCgcast:     batch,
		CountFrames:     !batch,
	})
	return seqScale{svc}, err
}

// newScalePar builds the unbatched E13 service on the replica-stack
// parallel tracker at parK engine shards, settled so every stack clock is
// aligned before the attach.
func newScalePar(parK int) (parScale, error) {
	ps, err := core.NewParallel(core.Config{
		Width:           scaleSide,
		AlwaysAliveVSAs: true,
		Start:           centerRegion(scaleSide),
		Seed:            11,
		CountFrames:     true,
		ParallelTracker: parK,
	})
	if err != nil {
		return parScale{}, err
	}
	return parScale{ps}, ps.Settle()
}

// runScaleWorkload runs the E13 workload on the sequential service and
// adds the sampled Theorem 4.8 look-aheads and the mean region state size.
func runScaleWorkload(k int, batch bool) (scaleStats, error) {
	svc, err := newScaleSeq(batch)
	if err != nil {
		return scaleStats{}, err
	}
	run, err := driveScale(svc, k)
	if err != nil {
		return scaleStats{}, err
	}
	st := scaleStats{scaleRun: run}

	// Sampled Theorem 4.8: each sampled object's settled state vector
	// look-aheads to the atomic spec of its own moves.
	for i, obj := range scaleSample(k) {
		st.thm48All++
		want, err := run.specs[i].State()
		if err != nil {
			return scaleStats{}, err
		}
		got := lookahead.LookAhead(lookahead.CaptureObject(svc.Network(), obj))
		if lookahead.Equal(got, want) == "" {
			st.thm48OK++
		}
	}

	var stateBytes int
	regions := svc.Tiling().NumRegions()
	aut := svc.Network().Automaton()
	for u := 0; u < regions; u++ {
		stateBytes += len(aut.EncodeRegion(geo.RegionID(u)))
	}
	st.bytesPerRegion = float64(stateBytes) / float64(regions)
	return st, nil
}

// parallelMatchesSequential proves the parallel tracker's identity bar at
// one k: the sequential unbatched run and the parallel runs at K = 1 and
// K = scaleParK must agree on every found output and every region encoding,
// and the engine step count must be invariant in K.
func parallelMatchesSequential(k int) (bool, string, error) {
	observe := func(svc scaleSvc, err error) (scaleRun, [][]byte, error) {
		if err != nil {
			return scaleRun{}, nil, err
		}
		run, err := driveScale(svc, k)
		if err != nil {
			return scaleRun{}, nil, err
		}
		encs, err := scaleEncodings(svc)
		return run, encs, err
	}
	seq, seqEncs, err := observe(newScaleSeq(false))
	if err != nil {
		return false, "", err
	}
	regions := len(seqEncs)

	var steps []uint64
	for _, kk := range []int{1, scaleParK} {
		par, parEncs, err := observe(newScalePar(kk))
		if err != nil {
			return false, "", err
		}
		steps = append(steps, par.steps)
		if len(par.founds) != len(seq.founds) {
			return false, fmt.Sprintf("K=%d: %d founds vs %d sequential", kk, len(par.founds), len(seq.founds)), nil
		}
		for i := range par.founds {
			if par.founds[i] != seq.founds[i] {
				return false, fmt.Sprintf("K=%d: found %d is %+v, sequential %+v", kk, i, par.founds[i], seq.founds[i]), nil
			}
		}
		diff := 0
		for u := range seqEncs {
			if !bytes.Equal(parEncs[u], seqEncs[u]) {
				diff++
			}
		}
		if diff > 0 {
			return false, fmt.Sprintf("K=%d: %d/%d region encodings differ from sequential", kk, diff, regions), nil
		}
	}
	if steps[0] != steps[1] {
		return false, fmt.Sprintf("engine steps vary with K: %d at K=1, %d at K=%d", steps[0], steps[1], scaleParK), nil
	}
	return true, fmt.Sprintf("founds and all %d region encodings byte-identical across sequential, K=1, K=%d (%d engine steps)",
		regions, scaleParK, steps[0]), nil
}

// bulkMatchesSequential attaches the same k-object population through
// core.Service.AddObjects and through k sequential AddObject calls, settles
// both, and compares every region's canonical encoding byte for byte.
func bulkMatchesSequential(k int) (bool, string, error) {
	build := func() (*core.Service, error) {
		return core.New(core.Config{
			Width:           scaleSide,
			AlwaysAliveVSAs: true,
			Start:           centerRegion(scaleSide),
			Seed:            11,
			BatchCgcast:     true,
		})
	}
	bulk, err := build()
	if err != nil {
		return false, "", err
	}
	regions := bulk.Tiling().NumRegions()
	placements := scalePlacements(k, regions)
	if _, err := bulk.AddObjects(placements); err != nil {
		return false, "", err
	}
	if err := bulk.Settle(); err != nil {
		return false, "", err
	}

	seq, err := build()
	if err != nil {
		return false, "", err
	}
	for _, p := range placements {
		if _, err := seq.AddObject(p.Obj, p.Start); err != nil {
			return false, "", err
		}
	}
	if err := seq.Settle(); err != nil {
		return false, "", err
	}

	diff := 0
	autB, autS := bulk.Network().Automaton(), seq.Network().Automaton()
	for u := 0; u < regions; u++ {
		if !bytes.Equal(autB.EncodeRegion(geo.RegionID(u)), autS.EncodeRegion(geo.RegionID(u))) {
			diff++
		}
	}
	if diff > 0 {
		return false, fmt.Sprintf("%d/%d region encodings differ", diff, regions), nil
	}
	return true, fmt.Sprintf("all %d region encodings byte-identical across %d objects", regions, k), nil
}
