package main

import (
	"runtime"
	"time"

	"vinestalk/internal/core"
	"vinestalk/internal/evader"
	"vinestalk/internal/geo"
	"vinestalk/internal/metrics"
	"vinestalk/internal/trace"
	"vinestalk/internal/tracker"
)

// fanout128k is ROADMAP item 1's regime: 131 072 objects multiplexed over
// one small hierarchy, so the tracker's object tables, the network's maps,
// C-gcast batching and the allocator do the work while geocast routes stay
// short. fanout128k-k2 pushes the same generated inputs through
// core.NewParallel, which uses the tracker, C-gcast and sim layers
// differently (replica stacks, sim.Sharded barriers, cross-band find frames,
// ledger and encoding merges).

// fanScale sizes the workload.
type fanScale struct {
	side    int
	objects int
	slices  int // a lap moves two of these object slices: one object in slices/2
	finds   int // finds per lap
	minLaps int // the exact window
}

func fanScaleFor(smoke bool) fanScale {
	if smoke {
		return fanScale{side: 16, objects: 4096, slices: 16, finds: 64, minLaps: 4}
	}
	return fanScale{side: 16, objects: 131072, slices: 32, finds: 256, minLaps: 8}
}

func fanConfig(sc fanScale, seed int64, k int) core.Config {
	return core.Config{
		Width:           sc.side,
		Seed:            seed,
		AlwaysAliveVSAs: true,
		FormulaGeometry: true,
		BatchCgcast:     true,
		ParallelTracker: k,
	}
}

// fanSvc is what the workload needs of either host. The two adapters below
// only forward; drain runs the event queue dry without Settle's quiescence
// scan, which at this population costs tens of milliseconds and would
// swamp a single find.
type fanSvc interface {
	AddObjects([]core.ObjectPlacement) (map[tracker.ObjectID]*evader.Evader, error)
	FindObject(geo.RegionID, tracker.ObjectID) (tracker.FindID, error)
	Settle() error
	Tiling() *geo.GridTiling
	Founds() []tracker.FindResult
	drain()
	steps() uint64
	snapshot() metrics.Snapshot
	findP99() time.Duration
	encodeRegion(u geo.RegionID) ([]byte, error)
}

type seqHost struct{ *core.Service }

func (s seqHost) drain()                     { s.Kernel().Run() }
func (s seqHost) steps() uint64              { return s.Kernel().Steps() }
func (s seqHost) snapshot() metrics.Snapshot { return s.Ledger().Snapshot() }
func (s seqHost) findP99() time.Duration     { return s.Ledger().Latency("find").P99 }
func (s seqHost) encodeRegion(u geo.RegionID) ([]byte, error) {
	return s.Network().Automaton().EncodeRegion(u), nil
}

type parHost struct{ *core.ParallelService }

func (p parHost) drain()                     { p.Engine().Run() }
func (p parHost) steps() uint64              { return p.Steps() }
func (p parHost) snapshot() metrics.Snapshot { return metrics.MergedSnapshot(p.Ledgers()...) }
func (p parHost) findP99() time.Duration     { return p.MergedLedger().Latency("find").P99 }
func (p parHost) encodeRegion(u geo.RegionID) ([]byte, error) {
	return p.EncodeRegion(u)
}

// fanWorld is an assembled, populated and warmed-up service plus the
// generator's own view of where every object is.
type fanWorld struct {
	svc fanSvc
	sc  fanScale
	evs []*evader.Evader // by object id; [0] unused
	pos []geo.RegionID
}

// moveSlices moves every object of the given slices (object ids congruent to
// the slice number) to a seeded neighbour and settles. It is both the
// warm-up step and the move half of a timed lap.
func (w *fanWorld) moveSlices(rng interface{ Intn(int) int }, slices ...int) (int, error) {
	tiling := w.svc.Tiling()
	n := 0
	for _, slice := range slices {
		for id := 1 + (slice+w.sc.slices)%w.sc.slices; id <= w.sc.objects; id += w.sc.slices {
			nb := tiling.Neighbors(w.pos[id])
			to := nb[rng.Intn(len(nb))]
			if err := w.evs[id].MoveTo(to); err != nil {
				return n, err
			}
			w.pos[id] = to
			n++
		}
	}
	return n, w.svc.Settle()
}

// moveLap is the move half of timed lap number lap: the slice that has not
// moved for longest, and once more the slice the lap before moved. What a
// move costs alternates with how often the object has moved since it was
// attached: the first is cheap (the straight bulk-attach path), the second
// dear, the third cheap again (measured: 8 000, 10 500 and 7 500 moves/s for
// whole rounds of second, third and fourth moves). If a lap moved objects
// that all stand at the same count, a timed phase would speed up and slow
// down from one round to the next, and the rate measured would depend on
// how many laps the machine fits into the run. This way every lap moves as
// many objects for an even time as for an odd one, from the first lap (the
// warm-up moves the last slice twice) to any number of rounds.
func (w *fanWorld) moveLap(lap int, rng interface{ Intn(int) int }) (int, error) {
	return w.moveSlices(rng, lap, lap-1)
}

// buildFan is one set-up: assemble the host, bulk-attach the objects at
// seeded start regions, and move every object once (the last slice twice; see
// moveLap). The first move of a freshly attached object is cheaper than every
// later one (its path is still the straight bulk-attach path), so without the
// warm-up round the timed phase would speed up or slow down with the number
// of laps it fits in.
func buildFan(sc fanScale, seed int64, k int, tr *trace.Tracer, spans *spanLog, parent int) (*fanWorld, setupTimes, error) {
	var st setupTimes
	s0, t0 := machine.sample(), time.Now()
	sp := spans.begin("core.new", parent, 0)
	cfg := fanConfig(sc, seed, k)
	cfg.Tracer = tr
	var svc fanSvc
	if k > 0 {
		ps, err := core.NewParallel(cfg)
		if err != nil {
			return nil, st, err
		}
		svc = parHost{ps}
	} else {
		s, err := core.New(cfg)
		if err != nil {
			return nil, st, err
		}
		svc = seqHost{s}
	}
	if err := svc.Settle(); err != nil {
		return nil, st, err
	}
	spans.end(sp)
	t1 := time.Now()

	sp = spans.begin("tracker.attach", parent, 0)
	regions := sc.side * sc.side
	starts := stream(seed, "fanout/starts")
	w := &fanWorld{svc: svc, sc: sc, evs: make([]*evader.Evader, sc.objects+1), pos: make([]geo.RegionID, sc.objects+1)}
	placements := make([]core.ObjectPlacement, sc.objects)
	for i := range placements {
		at := geo.RegionID(starts.Intn(regions))
		placements[i] = core.ObjectPlacement{Obj: tracker.ObjectID(i + 1), Start: at}
		w.pos[i+1] = at
	}
	evs, err := svc.AddObjects(placements)
	if err != nil {
		return nil, st, err
	}
	for id, ev := range evs {
		w.evs[id] = ev
	}
	if err := svc.Settle(); err != nil {
		return nil, st, err
	}
	spans.end(sp)
	t2 := time.Now()

	sp = spans.begin("warmup", parent, 0)
	warm := stream(seed, "fanout/warmup")
	for s := 0; s < sc.slices; s += 2 {
		if _, err := w.moveSlices(warm, s, s+1); err != nil {
			return nil, st, err
		}
	}
	if _, err := w.moveSlices(warm, sc.slices-1); err != nil {
		return nil, st, err
	}
	// Every timed phase starts one whole collection cycle away from the next
	// collection, not wherever in its cycle the set-up left the heap.
	runtime.GC()
	spans.end(sp)
	st.coreNew, st.attach, st.warmup, st.attached = t1.Sub(t0), t2.Sub(t1), time.Since(t2), sc.objects
	st.total = ran(time.Since(t0), stolen()-s0)
	return w, st, nil
}

// fanTimed runs laps of (one slice moved and settled, then finds issued one
// at a time and drained, then settled) until both minLaps laps and the
// requested seconds are done. Find i of a lap starts at region i and targets
// an object id evenly spaced from a seeded offset; it is issued at a settled
// instant, so its answer does not depend on the schedule.
func fanTimed(w *fanWorld, seed int64, seconds float64, spans *spanLog, parent int) (*simPhase, error) {
	sc := w.sc
	ph := &simPhase{findLap: sc.finds}
	svc := w.svc
	moves := stream(seed, "fanout/moves")
	targets := stream(seed, "fanout/targets")
	regions := sc.side * sc.side
	var finds []issuedFind

	before := svc.snapshot()
	steps0 := svc.steps()
	deadline := time.Duration(seconds * float64(time.Second))
	lap := 0
	for lap < sc.minLaps || ph.m.wall < deadline {
		ph.m.start()
		t0 := time.Now()
		op := spans.begin("lap.moves", parent, trace.OpMove(uint64(lap+1)))
		moved, err := w.moveLap(lap, moves)
		spans.end(op)
		if err != nil {
			return nil, err
		}
		ph.moveUs = append(ph.moveUs, float64(time.Since(t0).Nanoseconds())/1e3/float64(moved))
		op = spans.begin("lap.finds", parent, trace.OpFind(int64(lap+1)))
		off := targets.Intn(sc.objects)
		for i := 0; i < sc.finds; i++ {
			obj := 1 + (off+i*(sc.objects/sc.finds))%sc.objects
			t1 := time.Now()
			id, err := svc.FindObject(geo.RegionID(i%regions), tracker.ObjectID(obj))
			if err != nil {
				return nil, err
			}
			svc.drain()
			ph.findUs = append(ph.findUs, float64(time.Since(t1).Nanoseconds())/1e3)
			finds = append(finds, issuedFind{id: id, expect: w.pos[obj]})
		}
		if err := svc.Settle(); err != nil {
			return nil, err
		}
		spans.end(op)
		ph.m.stop()
		scale(ph.moveUs[lap:], ph.m.share)
		scale(ph.findUs[lap*sc.finds:], ph.m.share)
		ph.moves += int64(moved)
		ph.finds += int64(sc.finds)
		lap++
		if lap == sc.minLaps {
			x := &ph.exact
			x.moves, x.finds = ph.moves, ph.finds
			x.ops = x.moves + x.finds
			if err := x.close(svc.steps()-steps0, before, svc.snapshot, svc.findP99(), svc.Founds(), regions, svc.encodeRegion); err != nil {
				return nil, err
			}
		}
	}
	ph.ops = ph.moves + ph.finds
	ph.events = svc.steps() - steps0

	ph.checkFinds(svc.Founds(), finds)
	return ph, nil
}

// shardedMetrics reads the parallel engine's barrier counters after a run.
func shardedMetrics(res *result, ps *core.ParallelService, ph *simPhase) {
	eng := ps.Engine()
	var sum, max float64
	for i := 0; i < eng.K(); i++ {
		s := float64(eng.Shard(i).Kernel().Steps())
		sum += s
		if s > max {
			max = s
		}
	}
	L := res.Layer
	L["sim.sharded_rounds"] = float64(eng.Rounds())
	L["sim.sharded_cross_sends"] = float64(eng.CrossSends())
	L["sim.sharded_balance"] = per(max, sum/float64(eng.K()))
	L["sim.sharded_ns_per_event"] = per(float64(ph.m.host), float64(ph.events))
	t := time.Now()
	_ = ps.MergedLedger()
	regions := ps.Tiling().NumRegions()
	for u := 0; u < regions; u++ {
		if _, err := ps.EncodeRegion(geo.RegionID(u)); err != nil {
			res.fail("merged encoding of region %d: %v", u, err)
			break
		}
	}
	L["core.parallel_merge_s"] = time.Since(t).Seconds()
	res.note("sharded engine counters (rounds, cross sends, balance) are since service start: set-up, warm-up and timed phase")
}

func runFanout(o options, k int) (*result, error) {
	sc := fanScaleFor(o.smoke)
	name := "fanout128k"
	if k > 0 {
		name = "fanout128k-k2"
	}
	res := newResult(name, o.seed)
	root := o.spans.begin("run", -1, 0)
	defer o.spans.end(root)
	scaleNote := func() {
		res.note("%d objects on %dx%d, laps of %d moves + %d finds, exact window %d laps, GOMAXPROCS %d",
			sc.objects, sc.side, sc.side, 2*sc.objects/sc.slices, sc.finds, sc.minLaps, runtime.GOMAXPROCS(0))
	}

	if !o.trace {
		w, st, err := buildFan(sc, o.seed, k, nil, nil, -1)
		if err != nil {
			return nil, err
		}
		ph, err := fanTimed(w, o.seed, o.seconds, nil, -1)
		if err != nil {
			return nil, err
		}
		fillSim(res, ph, []float64{st.total.Seconds()}, st)
		res.note("setup_s is one set-up, %.1f s less the stolen time and before the pace correction (by the clock: assemble %.3f, attach %.3f, warm-up round %.3f): long enough to be steady without repeats",
			st.total.Seconds(), st.coreNew.Seconds(), st.attach.Seconds(), st.warmup.Seconds())
		if k > 0 {
			res.note("digest must equal fanout128k's for this seed; the traced run and bench_test.go check it")
		}
		scaleNote()
		return res, nil
	}

	res.Layer["tracker.wire_ns_per_msg"] = wireCost()
	sp := o.spans.begin("setup", root, 0)
	w, st, err := buildFan(sc, o.seed, k, nil, o.spans, sp)
	o.spans.end(sp)
	if err != nil {
		return nil, err
	}
	sp = o.spans.begin("timed.untraced", root, 0)
	d, err := fanTimed(w, o.seed, 0, nil, -1)
	o.spans.end(sp)
	if err != nil {
		return nil, err
	}
	fillSim(res, d, []float64{st.total.Seconds()}, st)
	scaleNote()

	if k > 0 {
		// The parallel host rejects a tracer, so there is no schedule to
		// replay; its layers are the engine's barrier counters and the
		// merges, and its check is the sequential twin's digest.
		shardedMetrics(res, w.svc.(parHost).ParallelService, d)
		w = nil
		runtime.GC()
		sp = o.spans.begin("twin.sequential", root, 0)
		tw, _, err := buildFan(sc, o.seed, 0, nil, nil, -1)
		if err != nil {
			return nil, err
		}
		td, err := fanTimed(tw, o.seed, 0, nil, -1)
		o.spans.end(sp)
		if err != nil {
			return nil, err
		}
		if td.exact.digest != d.exact.digest {
			res.fail("digest %s differs from the sequential host's %s for the same inputs", d.exact.digest, td.exact.digest)
		}
		res.note("sequential twin digest %s", td.exact.digest)
		return res, nil
	}

	// End-state costs, then the traced run and the replay, as on walk64.
	seq := w.svc.(seqHost).Service
	regions := sc.side * sc.side
	encs := make([][]byte, regions)
	for u := range encs {
		encs[u] = seq.Network().Automaton().EncodeRegion(geo.RegionID(u))
	}
	blank, err := core.New(fanConfig(sc, o.seed, 0))
	if err != nil {
		return nil, err
	}
	if res.Layer["tracker.decode_ns_per_region"], err = decodeCost(encs, blank.Network().Automaton()); err != nil {
		return nil, err
	}
	res.Layer["metrics.ledger_ns_per_record"] = ledgerCost(seq.Ledger().Kinds())
	w, seq, blank, encs = nil, nil, nil, nil
	runtime.GC()

	log := newSendLog()
	tr := trace.New(1)
	tr.Attach(log.sink)
	tw, _, err := buildFan(sc, o.seed, 0, tr, nil, -1)
	if err != nil {
		return nil, err
	}
	log.recs = log.recs[:0] // set-up and warm-up sends are not replayed
	sp = o.spans.begin("timed.traced", root, 0)
	dt, err := fanTimed(tw, o.seed, 0, o.spans, sp)
	o.spans.end(sp)
	if err != nil {
		return nil, err
	}
	if dt.exact.digest != d.exact.digest {
		res.fail("traced run digest %s differs from untraced %s: tracing changed the schedule", dt.exact.digest, d.exact.digest)
	}
	tw = nil
	runtime.GC()

	env := replayEnv{side: sc.side, base: 2, delta: 10 * time.Millisecond, e: 5 * time.Millisecond}
	sp = o.spans.begin("replay", root, 0)
	lc, err := replayLayers(env, log, true, o.seed, o.spans, sp)
	o.spans.end(sp)
	if err != nil {
		return nil, err
	}
	lc.fill(res, true, d.cost(), dt.cost())
	res.note("traced run replays only the %d laps of the exact window, not the warm-up round", sc.minLaps)
	return res, nil
}
