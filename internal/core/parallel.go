package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"vinestalk/internal/evader"
	"vinestalk/internal/geo"
	"vinestalk/internal/hier"
	"vinestalk/internal/metrics"
	"vinestalk/internal/sim"
	"vinestalk/internal/tracker"
)

// parallelHomeShards is the fixed logical home partition of the parallel
// tracker: the grid is split into 8 row bands (geo.Partition) and every
// object is homed on the band of its start region. The partition is
// deliberately independent of the execution shard count K — logical shard l
// executes on engine shard l·K/8 — so the object→home map, the cross-home
// find rule, and therefore every observable are identical at every K.
const parallelHomeShards = 8

// ParallelService runs the tracking service of §VII multiple objects on a
// sim.Sharded engine: K complete replica stacks — VSA layer, V-bcast,
// geocast, C-gcast, tracker network, one client per region — each live on
// one engine shard's kernel, and every tracked object's entire cascade runs
// on the stack homing its start region. No event on one stack ever
// addresses another, so the K kernels run side by side with no
// synchronisation between them. Disjoint objects' cascades commute
// (Theorem 4.9, pinned by the PR-9 object-sharding proofs), so the union of
// the K stacks' settled states is byte-identical to one stack tracking all
// objects: Founds, merged region encodings (MergeRegionEncodings), and the
// merged metrics ledger are all invariant in K.
//
// Global state is gone from the hot path by construction: each stack owns a
// shard-local metrics.Ledger (merged deterministically on demand), its own
// tracker maps, and its own kernel RNG stream (seeded seed + shard·0x9E37;
// nothing on the cascade path draws from it — chaos, the one RNG consumer,
// is rejected in this mode). The only cross-shard effect is the find input,
// which the driver hands over between runs: a find issued at region u for
// an object homed on another logical shard is a δ-delayed Sharded.Send from
// u's shard to the home shard. The δ charge depends only on the logical
// shards of origin and home, never on K, and find inputs reach a stack in
// call order at every K, keeping every observable K-invariant.
type ParallelService struct {
	cfg    Config
	eng    *sim.Sharded
	stacks []*Service
	homes  *geo.Partition // logical 8-band home partition
	tiling *geo.GridTiling

	findSeq int64
	findErr []error // one slot per engine shard; written only by that shard
	objHome map[tracker.ObjectID]int
}

// NewParallel assembles the parallel tracker with cfg.ParallelTracker
// engine shards. K must divide the fixed logical home partition (8), i.e.
// K ∈ {1, 2, 4, 8}. Modes whose state cannot be shard-confined are
// rejected: chaos (the shared-RNG consumer), emulation, heartbeats, and
// tracer/OnFound callbacks (which would observe per-stack interleavings).
func NewParallel(cfg Config) (*ParallelService, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	k := cfg.ParallelTracker
	if k < 1 || parallelHomeShards%k != 0 {
		return nil, fmt.Errorf("core: ParallelTracker must be one of {1, 2, 4, 8}, got %d", k)
	}
	if cfg.Chaos != nil && cfg.Chaos.Enabled() {
		return nil, errors.New("core: chaos draws from the shared RNG stream; unavailable with ParallelTracker")
	}
	if cfg.Emulation != nil {
		return nil, errors.New("core: emulation is unavailable with ParallelTracker")
	}
	if cfg.Heartbeat > 0 {
		return nil, errors.New("core: heartbeats are unavailable with ParallelTracker")
	}
	if cfg.Tracer != nil || cfg.OnFound != nil {
		return nil, errors.New("core: Tracer/OnFound callbacks observe per-stack interleavings; unavailable with ParallelTracker")
	}
	tiling, err := geo.NewGridTiling(cfg.Width, cfg.Height)
	if err != nil {
		return nil, err
	}
	h, err := hier.NewGrid(tiling, cfg.Base)
	if err != nil {
		return nil, err
	}
	if !tiling.Contains(cfg.Start) {
		return nil, fmt.Errorf("core: start region %v outside the %dx%d grid", cfg.Start, cfg.Width, cfg.Height)
	}
	// One tiling, hierarchy and geometry for all stacks: all three are
	// read-only once built (a grid's routing graph holds no rows, and no
	// stack's message path calls its two memoizing methods).
	var geom hier.Geometry
	if cfg.FormulaGeometry {
		geom = hier.GridFormulas(cfg.Base, h.MaxLevel())
	} else {
		geom = hier.MeasureGeometry(h)
	}

	ps := &ParallelService{
		cfg:     cfg,
		eng:     sim.NewSharded(cfg.Seed, k),
		stacks:  make([]*Service, k),
		homes:   geo.NewPartition(tiling, parallelHomeShards),
		tiling:  tiling,
		findErr: make([]error, k),
		objHome: make(map[tracker.ObjectID]int),
	}
	ps.objHome[tracker.DefaultObject] = ps.homes.ShardOf(cfg.Start)
	home := ps.execOf(ps.objHome[tracker.DefaultObject])
	scfg := cfg
	scfg.ParallelTracker = 0
	for i := range ps.stacks {
		s, err := buildService(h, scfg, buildParams{
			kern:        ps.eng.Shard(i).Kernel(),
			geom:        &geom,
			placeEvader: i == home,
		})
		if err != nil {
			return nil, err
		}
		ps.stacks[i] = s
	}
	return ps, nil
}

// execOf maps a logical home shard to the engine shard executing it.
func (ps *ParallelService) execOf(logical int) int {
	return logical * ps.eng.K() / parallelHomeShards
}

// Now returns the latest stack clock — the instant new inputs are issued
// at. After Settle every stack clock equals it.
func (ps *ParallelService) Now() sim.Time {
	now := ps.stacks[0].kernel.Now()
	for _, s := range ps.stacks[1:] {
		now = max(now, s.kernel.Now())
	}
	return now
}

// Engine returns the K-kernel engine the stacks run on.
func (ps *ParallelService) Engine() *sim.Sharded { return ps.eng }

// Stack returns replica stack i, for per-stack inspection in tests.
func (ps *ParallelService) Stack(i int) *Service { return ps.stacks[i] }

// Tiling returns the grid tiling.
func (ps *ParallelService) Tiling() *geo.GridTiling { return ps.tiling }

// HomeOf returns the logical home shard of a tracked object.
func (ps *ParallelService) HomeOf(obj tracker.ObjectID) (int, bool) {
	l, ok := ps.objHome[obj]
	return l, ok
}

// Evader returns the primary mobile object (homed with cfg.Start).
func (ps *ParallelService) Evader() *evader.Evader {
	return ps.stacks[ps.execOf(ps.objHome[tracker.DefaultObject])].ev
}

// Steps returns the total events processed across all stacks — the same
// count at every K (the event multiset is partitioned, not changed), and
// one per find more than the sequential service's kernel reports for the
// same program: there a find input is a call, here it is an event.
func (ps *ParallelService) Steps() uint64 { return ps.eng.Steps() }

// AddObjects bulk-attaches objects across the stacks: placements are split
// by the engine shard of each start region's logical band (preserving slice
// order within a shard) and each stack runs its tracker.AttachObjects group
// concurrently — the stacks share no state, so the attach phase itself is
// shard-parallel. Objects sharing a start region always land on one stack,
// so per-region splice groups are identical at every K.
func (ps *ParallelService) AddObjects(placements []ObjectPlacement) (map[tracker.ObjectID]*evader.Evader, error) {
	// The whole batch is validated before the first mutation: a rejected
	// batch leaves objHome and every stack as they were.
	homes := make(map[tracker.ObjectID]int, len(placements))
	byExec := make([][]ObjectPlacement, ps.eng.K())
	for _, p := range placements {
		if p.Obj == tracker.DefaultObject {
			return nil, errors.New("core: object 0 is the primary evader; pick nonzero ids")
		}
		_, tracked := ps.objHome[p.Obj]
		_, dup := homes[p.Obj]
		if tracked || dup {
			return nil, fmt.Errorf("core: object %d is already tracked", p.Obj)
		}
		if !ps.tiling.Contains(p.Start) {
			return nil, fmt.Errorf("core: start region %v of object %d outside the %dx%d grid",
				p.Start, p.Obj, ps.cfg.Width, ps.cfg.Height)
		}
		l := ps.homes.ShardOf(p.Start)
		homes[p.Obj] = l
		e := ps.execOf(l)
		byExec[e] = append(byExec[e], p)
	}
	for obj, l := range homes {
		ps.objHome[obj] = l
	}
	groups := make([]map[tracker.ObjectID]*evader.Evader, ps.eng.K())
	errs := make([]error, ps.eng.K())
	var wg sync.WaitGroup
	for e, group := range byExec {
		if len(group) == 0 {
			continue
		}
		wg.Add(1)
		go func(e int, group []ObjectPlacement) {
			defer wg.Done()
			groups[e], errs[e] = ps.stacks[e].AddObjects(group)
		}(e, group)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			// A stack refuses a validated group only when it was driven
			// behind the service's back or hit an internal fault; this
			// call's ids are forgotten, a group another stack had already
			// attached is not dismantled.
			for obj := range homes {
				delete(ps.objHome, obj)
			}
			return nil, err
		}
	}
	evs := make(map[tracker.ObjectID]*evader.Evader, len(placements))
	for _, g := range groups {
		for obj, ev := range g {
			evs[obj] = ev
		}
	}
	return evs, nil
}

// FindObject issues a find at region u for a tracked object. The input is
// a kernel event on the object's home stack, due now when u's logical shard
// is the home shard and δ later otherwise. The δ charge depends only on the
// two logical shards, so find timing — and the recorded find latency,
// measured from input execution — is identical at every K.
func (ps *ParallelService) FindObject(u geo.RegionID, obj tracker.ObjectID) (tracker.FindID, error) {
	lh, ok := ps.objHome[obj]
	if !ok {
		return 0, fmt.Errorf("core: object %d is not tracked", obj)
	}
	if !ps.tiling.Contains(u) {
		return 0, fmt.Errorf("core: find region %v outside the %dx%d grid", u, ps.cfg.Width, ps.cfg.Height)
	}
	lu := ps.homes.ShardOf(u)
	eu, eh := ps.execOf(lu), ps.execOf(lh)
	due := ps.Now()
	if lu != lh {
		due = sim.Add(due, ps.cfg.Delta)
	}
	ps.findSeq++
	id := tracker.FindID(ps.findSeq)
	target := ps.stacks[eh]
	ps.eng.Shard(eu).Send(eh, due, func() {
		if err := target.net.FindObjectAs(id, u, obj); err != nil && ps.findErr[eh] == nil {
			ps.findErr[eh] = err
		}
	})
	return id, nil
}

// Find issues a find for the primary object.
func (ps *ParallelService) Find(u geo.RegionID) (tracker.FindID, error) {
	return ps.FindObject(u, tracker.DefaultObject)
}

// Settle drains the engine — every stack that has work runs concurrently —
// then aligns every stack clock to the latest one and verifies each stack
// is move-quiescent. Errors raised inside deferred
// find inputs surface here.
func (ps *ParallelService) Settle() error {
	ps.eng.Run()
	ps.eng.RunUntil(ps.Now())
	for i, s := range ps.stacks {
		if err := ps.findErr[i]; err != nil {
			ps.findErr[i] = nil
			return err
		}
		if !s.net.MoveQuiescent() {
			return fmt.Errorf("core: stack %d drained but not move-quiescent", i)
		}
	}
	return nil
}

// Founds returns every find result reported by any stack, in find-id order
// (ids are issued globally, so this is issue order).
func (ps *ParallelService) Founds() []tracker.FindResult {
	var out []tracker.FindResult
	for _, s := range ps.stacks {
		out = append(out, s.founds...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Ledgers returns the K shard-local metrics ledgers.
func (ps *ParallelService) Ledgers() []*metrics.Ledger {
	out := make([]*metrics.Ledger, len(ps.stacks))
	for i, s := range ps.stacks {
		out[i] = s.ledger
	}
	return out
}

// MergedLedger folds the shard-local ledgers into one (metrics.Ledger.Merge
// — commutative, so the result is independent of stack order and of K).
func (ps *ParallelService) MergedLedger() *metrics.Ledger {
	m := metrics.NewLedger()
	for _, s := range ps.stacks {
		m.Merge(s.ledger)
	}
	return m
}

// EncodeRegion merges the K stacks' canonical encodings of region u into
// the encoding a single stack tracking every object would produce.
func (ps *ParallelService) EncodeRegion(u geo.RegionID) ([]byte, error) {
	encs := make([][]byte, len(ps.stacks))
	for i, s := range ps.stacks {
		encs[i] = s.net.Automaton().EncodeRegion(u)
	}
	return tracker.MergeRegionEncodings(encs...)
}
