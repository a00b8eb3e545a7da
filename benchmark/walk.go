package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"vinestalk/internal/core"
	"vinestalk/internal/geo"
	"vinestalk/internal/hier"
	"vinestalk/internal/metrics"
	"vinestalk/internal/trace"
	"vinestalk/internal/tracker"
)

// walk64 is the paper's own E1/E2 regime: one object on a large grid, every
// move and every find settled on its own. Long geocast routes and the
// per-message cost of kernel, V-bcast, geocast and C-gcast dominate; the
// tracker tables hold one row and batching never triggers.

// walkScale sizes the workload.
type walkScale struct {
	side     int
	lapPairs int // pairs between two looks at the clock
	minPairs int // the exact window: always run, whatever -seconds says
	setups   int // set-up repetitions; setup_s is their median
}

func walkScaleFor(smoke bool) walkScale {
	if smoke {
		return walkScale{side: 16, lapPairs: 500, minPairs: 2000, setups: 2}
	}
	return walkScale{side: 64, lapPairs: 1000, minPairs: 20000, setups: 5}
}

// setupTimes are the parts of one set-up.
type setupTimes struct {
	hierBuild  time.Duration
	coreNew    time.Duration
	precompute time.Duration
	attach     time.Duration
	attached   int // objects bulk-attached during attach
	warmup     time.Duration
	total      time.Duration
}

func walkConfig(sc walkScale, seed int64) core.Config {
	return core.Config{
		Width:           sc.side,
		Seed:            seed,
		Start:           geo.RegionID(sc.side*sc.side/2 + sc.side/2),
		AlwaysAliveVSAs: true,
		FormulaGeometry: true,
	}
}

// buildWalk is one set-up: tiling and hierarchy, the assembled service, and
// the routing graph's all-pairs BFS. The BFS is lazy per source in the
// library; left lazy it would turn cold finds into milliseconds, which is a
// set-up cost and has to show in setup_s, not in the steady state.
func buildWalk(sc walkScale, seed int64, tr *trace.Tracer, spans *spanLog, parent int) (*core.Service, setupTimes, error) {
	var st setupTimes
	s0, t0 := machine.sample(), time.Now()
	sp := spans.begin("hier.build", parent, 0)
	tiling, err := geo.NewGridTiling(sc.side, sc.side)
	if err != nil {
		return nil, st, err
	}
	h, err := hier.NewGrid(tiling, 2)
	if err != nil {
		return nil, st, err
	}
	spans.end(sp)
	t1 := time.Now()
	sp = spans.begin("core.new", parent, 0)
	cfg := walkConfig(sc, seed)
	cfg.Tracer = tr
	svc, err := core.NewWithHierarchy(h, cfg)
	if err != nil {
		return nil, st, err
	}
	spans.end(sp)
	t2 := time.Now()
	sp = spans.begin("geo.precompute", parent, 0)
	h.Graph().Precompute()
	spans.end(sp)
	t3 := time.Now()
	sp = spans.begin("core.settle", parent, 0)
	if err := svc.Settle(); err != nil {
		return nil, st, err
	}
	spans.end(sp)
	st.hierBuild, st.coreNew, st.precompute = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	st.total = ran(time.Since(t0), stolen()-s0)
	return svc, st, nil
}

// exactWindow is what the first minPairs pairs (or fan-out laps) counted:
// everything here is a function of the seed alone.
type exactWindow struct {
	ops, moves, finds  int64
	events             uint64
	moveMsgs, findMsgs int64
	moveWork, findWork int64
	geocastSends       int64
	geocastHops        int64
	simFindP99         time.Duration
	digest             string
	snapshotUs         float64 // one Ledger.Snapshot of the live ledger
	encodeNs           float64 // per region, while hashing the digest
	encodeBytes        float64
}

// findKinds are the protocol kinds a find causes; every other proto/ kind
// belongs to a move. Splitting one ledger delta by kind prices moves and
// finds apart without a snapshot around every operation.
var findKinds = map[string]bool{
	"proto/" + tracker.KindFind: true, "proto/" + tracker.KindFindQuery: true,
	"proto/" + tracker.KindFindAck: true, "proto/" + tracker.KindFound: true,
}

// splitProto folds a ledger delta into move and find message counts and hop
// work.
func (w *exactWindow) splitProto(d metrics.Snapshot) {
	for k, v := range d.MsgCount {
		if !strings.HasPrefix(k, "proto/") {
			continue
		}
		if findKinds[k] {
			w.findMsgs += v
		} else {
			w.moveMsgs += v
		}
	}
	for k, v := range d.HopWork {
		if !strings.HasPrefix(k, "proto/") {
			continue
		}
		if findKinds[k] {
			w.findWork += v
		} else {
			w.moveWork += v
		}
	}
	w.geocastSends = d.MsgCount["transport/geocast"]
	w.geocastHops = d.HopWork["transport/geocast"]
}

// stateDigest hashes the ID-sorted found outputs and every region's
// canonical encoding: two runs agree on it exactly when they computed the
// same tracking state and answered the same finds the same way.
func stateDigest(founds []tracker.FindResult, regions int, encode func(geo.RegionID) ([]byte, error)) (string, float64, error) {
	sort.Slice(founds, func(i, j int) bool { return founds[i].ID < founds[j].ID })
	h := sha256.New()
	var buf [24]byte
	for _, f := range founds {
		binary.BigEndian.PutUint64(buf[0:], uint64(f.ID))
		binary.BigEndian.PutUint32(buf[8:], uint32(f.Object))
		binary.BigEndian.PutUint32(buf[12:], uint32(f.Origin))
		binary.BigEndian.PutUint32(buf[16:], uint32(f.FoundAt))
		h.Write(buf[:20])
	}
	var bytes float64
	for u := 0; u < regions; u++ {
		enc, err := encode(geo.RegionID(u))
		if err != nil {
			return "", 0, err
		}
		bytes += float64(len(enc))
		binary.BigEndian.PutUint32(buf[0:], uint32(len(enc)))
		h.Write(buf[:4])
		h.Write(enc)
	}
	return hex.EncodeToString(h.Sum(nil)), bytes, nil
}

// simPhase is one timed phase of a simulator workload.
type simPhase struct {
	m        meter
	ops      int64
	moves    int64
	finds    int64
	moveUs   []float64
	findUs   []float64
	findLap  int // finds per lap: the window of the end-to-end p95
	failed   int64
	events   uint64 // kernel events of the whole timed phase
	exact    exactWindow
	problems []string
}

func (p *simPhase) cost() stackCost {
	return stackCost{host: p.m.host, mem: p.m.mem}
}

// issuedFind is a find the workload issued and where it must be answered.
type issuedFind struct {
	id     tracker.FindID
	expect geo.RegionID
}

// checkFinds fails every issued find that was never answered or was answered
// somewhere other than the generator's position of its target.
func (p *simPhase) checkFinds(founds []tracker.FindResult, finds []issuedFind) {
	got := make(map[tracker.FindID]geo.RegionID, len(founds))
	for _, f := range founds {
		got[f.ID] = f.FoundAt
	}
	for _, f := range finds {
		at, ok := got[f.id]
		switch {
		case !ok:
			p.failed++
			p.problems = append(p.problems, fmt.Sprintf("find %d never answered", f.id))
		case at != f.expect:
			p.failed++
			p.problems = append(p.problems, fmt.Sprintf("find %d answered at %v, its target was at %v", f.id, at, f.expect))
		}
	}
}

// close fills the exact window from the host's counters at the moment the
// window ends; the caller has set ops, moves and finds.
func (w *exactWindow) close(events uint64, before metrics.Snapshot, snapshot func() metrics.Snapshot, findP99 time.Duration,
	founds []tracker.FindResult, regions int, encode func(geo.RegionID) ([]byte, error)) error {
	w.events = events
	t := time.Now()
	snap := snapshot()
	w.snapshotUs = float64(time.Since(t).Nanoseconds()) / 1e3
	w.splitProto(snap.Sub(before))
	w.simFindP99 = findP99
	t = time.Now()
	dig, bytes, err := stateDigest(founds, regions, encode)
	if err != nil {
		return err
	}
	w.digest = dig
	w.encodeNs = float64(time.Since(t).Nanoseconds()) / float64(regions)
	w.encodeBytes = bytes / float64(regions)
	return nil
}

// walkTimed runs the timed phase: laps of lapPairs × (random-walk move +
// Settle, then find from a seeded origin + Settle) until both minPairs pairs
// and the requested seconds are done. The exact window closes at minPairs.
func walkTimed(svc *core.Service, sc walkScale, seed int64, seconds float64, spans *spanLog, parent int) (*simPhase, error) {
	ph := &simPhase{findLap: sc.lapPairs}
	moves := stream(seed, "walk64/moves")
	origins := stream(seed, "walk64/origins")
	regions := sc.side * sc.side
	tiling := svc.Tiling()
	var finds []issuedFind

	ledger := svc.Ledger()
	before := ledger.Snapshot()
	steps0 := svc.Kernel().Steps()
	deadline := time.Duration(seconds * float64(time.Second))
	pairs := 0
	for pairs < sc.minPairs || ph.m.wall < deadline {
		ph.m.start()
		for i := 0; i < sc.lapPairs; i++ {
			nb := tiling.Neighbors(svc.Evader().Region())
			to := nb[moves.Intn(len(nb))]
			origin := geo.RegionID(origins.Intn(regions))

			t0 := time.Now()
			op := spans.begin("op.move", parent, trace.OpMove(uint64(pairs+i+1)))
			sp := spans.begin("core.MoveEvader", op, 0)
			if err := svc.MoveEvader(to); err != nil {
				return nil, err
			}
			spans.end(sp)
			sp = spans.begin("core.Settle", op, 0)
			if err := svc.Settle(); err != nil {
				return nil, err
			}
			spans.end(sp)
			spans.end(op)
			t1 := time.Now()
			op = spans.begin("op.find", parent, trace.OpFind(int64(pairs+i+1)))
			sp = spans.begin("core.Find", op, 0)
			id, err := svc.Find(origin)
			if err != nil {
				return nil, err
			}
			spans.end(sp)
			sp = spans.begin("core.Settle", op, 0)
			if err := svc.Settle(); err != nil {
				return nil, err
			}
			spans.end(sp)
			spans.end(op)
			t2 := time.Now()
			ph.moveUs = append(ph.moveUs, float64(t1.Sub(t0).Nanoseconds())/1e3)
			ph.findUs = append(ph.findUs, float64(t2.Sub(t1).Nanoseconds())/1e3)
			finds = append(finds, issuedFind{id: id, expect: to})
		}
		ph.m.stop()
		scale(ph.moveUs[pairs:], ph.m.share)
		scale(ph.findUs[pairs:], ph.m.share)
		pairs += sc.lapPairs
		if pairs == sc.minPairs {
			w := &ph.exact
			w.moves, w.finds, w.ops = int64(pairs), int64(pairs), int64(2*pairs)
			aut := svc.Network().Automaton()
			err := w.close(svc.Kernel().Steps()-steps0, before, ledger.Snapshot, ledger.Latency("find").P99, svc.Founds(), regions,
				func(u geo.RegionID) ([]byte, error) { return aut.EncodeRegion(u), nil })
			if err != nil {
				return nil, err
			}
		}
	}
	ph.moves, ph.finds, ph.ops = int64(pairs), int64(pairs), int64(2*pairs)
	ph.events = svc.Kernel().Steps() - steps0

	// Every find must have been answered, at the region the evader was in.
	ph.checkFinds(svc.Founds(), finds)
	if err := svc.CheckTheorem48(); err != nil {
		ph.problems = append(ph.problems, err.Error())
	}
	if err := svc.CheckConsistent(); err != nil {
		ph.problems = append(ph.problems, "consistent-state predicate: "+err.Error())
	}
	return ph, nil
}

// fillSim writes the metrics every simulator workload shares.
func fillSim(res *result, ph *simPhase, setups []float64, st setupTimes) {
	// Host times are reported in the seconds of the nominal machine (pace.go).
	pace := machine.pace(res.Workload)
	host := ph.m.host.Seconds() / pace
	scale(ph.findUs, 1/pace)
	scale(ph.moveUs, 1/pace)
	ops := float64(ph.ops)
	res.Attempted = ph.ops
	res.Failed = ph.failed
	for _, p := range ph.problems {
		res.fail("%s", p)
	}
	find := summarize(ph.findUs, 95)
	find99 := summarize(ph.findUs, 99)
	move := summarize(ph.moveUs, 99)
	w := &ph.exact

	E := res.E2E
	E["setup_s"] = median(setups) / pace
	E["ops_per_s"] = per(ops, host)
	E["find_midmean_us"] = find.Mid
	E["find_p95_us"] = windowTail(chunks(ph.findUs, ph.findLap), 95)
	E["cpu_us_per_op"] = per(float64(ph.m.cpu.Microseconds())/pace, ops)
	E["hopwork_per_op"] = per(float64(w.moveWork+w.findWork), float64(w.ops))
	if rss, err := peakRSSMB(0); err == nil {
		E["peak_rss_mb"] = rss
	}

	L := res.Layer
	L["sim.events"] = float64(w.events)
	L["hier.build_s"] = st.hierBuild.Seconds()
	L["core.new_s"] = st.coreNew.Seconds()
	L["geo.precompute_s"] = st.precompute.Seconds()
	L["core.warmup_s"] = st.warmup.Seconds()
	L["tracker.attach_objects_per_s"] = per(float64(st.attached), st.attach.Seconds())
	L["geocast.sends"] = float64(w.geocastSends)
	L["geocast.hops"] = float64(w.geocastHops)
	L["cgcast.msgs"] = float64(w.moveMsgs + w.findMsgs)
	L["tracker.msgs_per_move"] = per(float64(w.moveMsgs), float64(w.moves))
	L["tracker.msgs_per_find"] = per(float64(w.findMsgs), float64(w.finds))
	L["tracker.hopwork_per_move"] = per(float64(w.moveWork), float64(w.moves))
	L["tracker.hopwork_per_find"] = per(float64(w.findWork), float64(w.finds))
	L["tracker.encode_ns_per_region"] = w.encodeNs
	L["tracker.encode_bytes_per_region"] = w.encodeBytes
	L["metrics.snapshot_us"] = w.snapshotUs
	L["runtime.allocs_per_op"] = per(float64(ph.m.mem.mallocs), ops)
	L["runtime.bytes_per_op"] = per(float64(ph.m.mem.bytes), ops)
	L["core.find_p50_us"] = find.P50
	L["core.find_p99_us"] = find99.Tail
	L["core.move_p50_us"] = move.P50
	L["core.move_p99_us"] = move.Tail
	L["core.sim_find_p99_ms"] = float64(w.simFindP99) / 1e6
	L["host.stolen_pct"] = 100 * per(float64(ph.m.wall-ph.m.host), float64(ph.m.wall))
	L["host.pace"] = pace

	res.Exact["digest"] = w.digest
	res.Exact["sim.events"] = fmt.Sprint(w.events)
	res.Exact["hopwork"] = fmt.Sprint(w.moveWork + w.findWork)
	res.Exact["proto_msgs"] = fmt.Sprint(w.moveMsgs + w.findMsgs)
	res.Exact["sim_find_p99"] = w.simFindP99.String()
	res.Exact["exact_ops"] = fmt.Sprint(w.ops)
	res.note("timed phase: %d ops (%d moves, %d finds) in %.3f host s: %.3f s by the clock, less the %.1f %% stolen from this VM, at pace %.3f (probe %.2f ms, n=%d, %d spoiled; nominal %v); exact window = first %d ops",
		ph.ops, ph.moves, ph.finds, host, ph.m.wall.Seconds(), L["host.stolen_pct"], pace, 1e3*median(machine.samples), len(machine.samples), machine.spoiled, probeNominal, w.ops)
	res.note("find host time per op: n=%d midmean %.1f us, p50 %.1f us, p%g %.1f us, p%g %.1f us, max %.1f us; find_p95_us is the median lap's (laps of %d finds)", find.N, find.Mid, find.P50, find.TailPct, find.Tail, find99.TailPct, find99.Tail, find.Max, ph.findLap)
	res.note("move host time per op: n=%d p50 %.1f us, p%g %.1f us, max %.1f us", move.N, move.P50, move.TailPct, move.Tail, move.Max)
	res.note("hopwork_per_op and core.sim_find_p99_ms are virtual-time/count results of the exact window; every other timing is host time")
}

// ledgerCost prices one metrics.Ledger record on a scratch ledger with the
// workload's kinds.
func ledgerCost(kinds []string) float64 {
	if len(kinds) == 0 {
		kinds = []string{"proto/grow"}
	}
	l := metrics.NewLedger()
	const n = 200_000
	t := time.Now()
	for i := 0; i < n; i++ {
		k := kinds[i%len(kinds)]
		l.RecordMessage(k, 3)
		l.RecordDelivery(k)
	}
	return float64(time.Since(t).Nanoseconds()) / (2 * n)
}

// decodeCost decodes every region's encoding into a fresh automaton of an
// identical service and returns ns per region.
func decodeCost(encs [][]byte, fresh *tracker.Automaton) (float64, error) {
	t := time.Now()
	for u, enc := range encs {
		if err := fresh.DecodeRegion(geo.RegionID(u), enc); err != nil {
			return 0, fmt.Errorf("decode region %d: %w", u, err)
		}
	}
	return float64(time.Since(t).Nanoseconds()) / float64(len(encs)), nil
}

func runWalk(o options) (*result, error) {
	sc := walkScaleFor(o.smoke)
	res := newResult("walk64", o.seed)
	root := o.spans.begin("run", -1, 0)
	defer o.spans.end(root)

	if !o.trace {
		var setups []float64
		var svc *core.Service
		var st setupTimes
		for i := 0; i < sc.setups; i++ {
			svc = nil
			runtime.GC()
			var err error
			if svc, st, err = buildWalk(sc, o.seed, nil, nil, -1); err != nil {
				return nil, err
			}
			setups = append(setups, st.total.Seconds())
		}
		ph, err := walkTimed(svc, sc, o.seed, o.seconds, nil, -1)
		if err != nil {
			return nil, err
		}
		fillSim(res, ph, setups, st)
		res.note("setup_s is the median of %d set-ups (here less the stolen time, before the pace correction): %v", len(setups), setups)
		return res, nil
	}

	res.Layer["tracker.wire_ns_per_msg"] = wireCost()

	// Traced run. First the same fixed number of operations untraced
	// (stack d), then again with the tracer recording every protocol send,
	// then the recorded schedule through the transport stacks below.
	sp := o.spans.begin("setup", root, 0)
	svc, st, err := buildWalk(sc, o.seed, nil, o.spans, sp)
	o.spans.end(sp)
	if err != nil {
		return nil, err
	}
	sp = o.spans.begin("timed.untraced", root, 0)
	d, err := walkTimed(svc, sc, o.seed, 0, nil, -1)
	o.spans.end(sp)
	if err != nil {
		return nil, err
	}
	fillSim(res, d, []float64{st.total.Seconds()}, st)

	// End-state costs of the untraced service: decode into a twin, ledger
	// record price with this run's kinds.
	aut := svc.Network().Automaton()
	regions := sc.side * sc.side
	encs := make([][]byte, regions)
	for u := range encs {
		encs[u] = aut.EncodeRegion(geo.RegionID(u))
	}
	twin, _, err := buildWalk(sc, o.seed, nil, nil, -1)
	if err != nil {
		return nil, err
	}
	if res.Layer["tracker.decode_ns_per_region"], err = decodeCost(encs, twin.Network().Automaton()); err != nil {
		return nil, err
	}
	res.Layer["metrics.ledger_ns_per_record"] = ledgerCost(svc.Ledger().Kinds())
	svc, twin, encs = nil, nil, nil
	runtime.GC()

	log := newSendLog()
	tr := trace.New(1)
	tr.Attach(log.sink)
	tsvc, _, err := buildWalk(sc, o.seed, tr, nil, -1)
	if err != nil {
		return nil, err
	}
	log.recs = log.recs[:0] // set-up sends are not part of the timed phase
	sp = o.spans.begin("timed.traced", root, 0)
	dt, err := walkTimed(tsvc, sc, o.seed, 0, o.spans, sp)
	o.spans.end(sp)
	if err != nil {
		return nil, err
	}
	if dt.exact.digest != d.exact.digest {
		res.fail("traced run digest %s differs from untraced %s: tracing changed the schedule", dt.exact.digest, d.exact.digest)
	}
	tsvc = nil
	runtime.GC()

	env := replayEnv{side: sc.side, base: 2, delta: 10 * time.Millisecond, e: 5 * time.Millisecond}
	sp = o.spans.begin("replay", root, 0)
	lc, err := replayLayers(env, log, false, o.seed, o.spans, sp)
	o.spans.end(sp)
	if err != nil {
		return nil, err
	}
	lc.fill(res, false, d.cost(), dt.cost())
	res.note("traced run: %d pairs replayed through stacks a, b1, b, c (both batching modes)", sc.minPairs)
	return res, nil
}

// wireCost prices one cluster message through the networked host's wire
// codec: EncodeClusterMsg plus DecodeClusterMsg of a find carrying one
// payload, the commonest frame of the daemon workload.
func wireCost() float64 {
	const n = 100_000
	body := []tracker.FindPayload{{ID: 12345, Origin: 17}}
	t := time.Now()
	for i := 0; i < n; i++ {
		b, err := tracker.EncodeClusterMsg(hier.ClusterID(5), geo.RegionID(9), 1, tracker.ObjectID(i&1023), tracker.KindFind, body)
		if err != nil {
			return 0
		}
		if _, _, err := tracker.DecodeClusterMsg(tracker.KindFind, b); err != nil {
			return 0
		}
	}
	return float64(time.Since(t).Nanoseconds()) / n
}
