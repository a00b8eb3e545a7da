package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"testing"
	"time"

	"vinestalk/internal/chaos"
	"vinestalk/internal/geo"
	"vinestalk/internal/trace"
	"vinestalk/internal/tracker"
)

// parallelCfg is the shared workload config: a 16×16 grid (256 regions,
// eight 2-row logical home bands), frame accounting on so per-message wire
// costs land in the ledger, formula geometry so assembly stays cheap.
func parallelCfg() Config {
	return Config{
		Width:           16,
		AlwaysAliveVSAs: true,
		Seed:            7,
		FormulaGeometry: true,
		CountFrames:     true,
		Start:           3,
	}
}

// parallelPlacements spreads objects over all eight logical bands.
func parallelPlacements(n int) []ObjectPlacement {
	out := make([]ObjectPlacement, n)
	for i := range out {
		out[i] = ObjectPlacement{
			Obj:   tracker.ObjectID(i + 1),
			Start: geo.RegionID((7 + 11*i) % 256),
		}
	}
	return out
}

// parallelObservables is everything the acceptance bar compares: find
// results, every region's canonical encoding, and the merged ledger.
type parallelObservables struct {
	founds []tracker.FindResult
	encs   [][]byte
	ledger []byte
	steps  uint64
	cross  uint64
}

func ledgerJSON(t *testing.T, export any) []byte {
	t.Helper()
	b, err := json.Marshal(export)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// moveTargets returns each object's two-round walk: deterministic neighbor
// picks, identical however the objects are split across stacks.
func moveTarget(t *testing.T, tl *geo.GridTiling, at geo.RegionID, salt int) geo.RegionID {
	t.Helper()
	nbrs := tl.Neighbors(at)
	if len(nbrs) == 0 {
		t.Fatalf("region %v has no neighbors", at)
	}
	return nbrs[salt%len(nbrs)]
}

// runParallelScenario drives the fixed workload on a ParallelService.
func runParallelScenario(t *testing.T, k int) parallelObservables {
	t.Helper()
	cfg := parallelCfg()
	cfg.ParallelTracker = k
	ps, err := NewParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Settle(); err != nil {
		t.Fatal(err)
	}
	placements := parallelPlacements(24)
	evs, err := ps.AddObjects(placements)
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Settle(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		for i, p := range placements {
			ev := evs[p.Obj]
			if err := ev.MoveTo(moveTarget(t, ps.Tiling(), ev.Region(), i+round)); err != nil {
				t.Fatal(err)
			}
		}
		if err := ps.Evader().MoveTo(moveTarget(t, ps.Tiling(), ps.Evader().Region(), round)); err != nil {
			t.Fatal(err)
		}
		if err := ps.Settle(); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range placements {
		if _, err := ps.FindObject(geo.RegionID((i*53)%256), p.Obj); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ps.Find(255); err != nil {
		t.Fatal(err)
	}
	if err := ps.Settle(); err != nil {
		t.Fatal(err)
	}

	obs := observeParallel(t, ps)
	if len(obs.founds) != len(placements)+1 {
		t.Fatalf("K=%d: %d founds, want %d", k, len(obs.founds), len(placements)+1)
	}
	return obs
}

// observeParallel reads a settled ParallelService's observables.
func observeParallel(t *testing.T, ps *ParallelService) parallelObservables {
	t.Helper()
	obs := parallelObservables{
		founds: ps.Founds(),
		encs:   make([][]byte, ps.Tiling().NumRegions()),
		ledger: ledgerJSON(t, ps.MergedLedger().Export()),
		steps:  ps.Steps(),
		cross:  ps.Engine().CrossSends(),
	}
	for u := range obs.encs {
		enc, err := ps.EncodeRegion(geo.RegionID(u))
		if err != nil {
			t.Fatalf("K=%d region %d: %v", ps.Engine().K(), u, err)
		}
		obs.encs[u] = enc
	}
	return obs
}

// runSequentialScenario drives the identical workload on the sequential
// single-kernel service.
func runSequentialScenario(t *testing.T) parallelObservables {
	t.Helper()
	svc, err := New(parallelCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Settle(); err != nil {
		t.Fatal(err)
	}
	placements := parallelPlacements(24)
	evs, err := svc.AddObjects(placements)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Settle(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		for i, p := range placements {
			ev := evs[p.Obj]
			if err := ev.MoveTo(moveTarget(t, svc.Tiling(), ev.Region(), i+round)); err != nil {
				t.Fatal(err)
			}
		}
		if err := svc.Evader().MoveTo(moveTarget(t, svc.Tiling(), svc.Evader().Region(), round)); err != nil {
			t.Fatal(err)
		}
		if err := svc.Settle(); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range placements {
		if _, err := svc.FindObject(geo.RegionID((i*53)%256), p.Obj); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.Find(255); err != nil {
		t.Fatal(err)
	}
	if err := svc.Settle(); err != nil {
		t.Fatal(err)
	}
	return observeSequential(t, svc)
}

// observeSequential reads a settled sequential Service's observables, founds
// in find-id order as ParallelService.Founds reports them.
func observeSequential(t *testing.T, svc *Service) parallelObservables {
	t.Helper()
	founds := svc.Founds()
	sort.Slice(founds, func(i, j int) bool { return founds[i].ID < founds[j].ID })
	obs := parallelObservables{
		founds: founds,
		encs:   make([][]byte, svc.Tiling().NumRegions()),
		ledger: ledgerJSON(t, svc.Ledger().Export()),
		steps:  svc.Kernel().Steps(),
	}
	aut := svc.Network().Automaton()
	for u := range obs.encs {
		obs.encs[u] = aut.EncodeRegion(geo.RegionID(u))
	}
	return obs
}

// The tentpole's acceptance bar: the full multi-object workload — bulk
// attach, two move rounds, cross-band finds — produces byte-identical
// found outputs, region encodings, and merged ledger snapshots at every
// engine shard count AND against the sequential single-kernel service.
func TestParallelTrackerByteIdentity(t *testing.T) {
	seq := runSequentialScenario(t)
	for _, k := range []int{1, 2, 4, 8} {
		par := runParallelScenario(t, k)
		assertMatchesSequential(t, k, par, seq)
		if k > 1 && par.cross == 0 {
			t.Errorf("K=%d: no cross-shard engine frames; finds never exercised Sharded.Send", k)
		}
	}
}

// assertMatchesSequential is the identity bar: founds, every region
// encoding and the merged ledger equal the sequential service's.
func assertMatchesSequential(t *testing.T, k int, par, seq parallelObservables) {
	t.Helper()
	if !reflect.DeepEqual(par.founds, seq.founds) {
		t.Errorf("K=%d: founds differ from sequential:\n par %+v\n seq %+v", k, par.founds, seq.founds)
	}
	for u := range seq.encs {
		if !bytes.Equal(par.encs[u], seq.encs[u]) {
			t.Errorf("K=%d: region %d encoding differs from sequential", k, u)
			break
		}
	}
	if !bytes.Equal(par.ledger, seq.ledger) {
		t.Errorf("K=%d: merged ledger differs from sequential:\n par %s\n seq %s", k, par.ledger, seq.ledger)
	}
}

// Engine step counts are the same event multiset partitioned, so the E13
// "par events" column is stable in K.
func TestParallelTrackerStepsInvariant(t *testing.T) {
	base := runParallelScenario(t, 1)
	for _, k := range []int{2, 8} {
		if got := runParallelScenario(t, k); got.steps != base.steps {
			t.Errorf("K=%d: %d engine steps, K=1 ran %d", k, got.steps, base.steps)
		}
	}
}

// Modes whose state cannot be shard-confined must be rejected up front,
// and K must divide the fixed logical home partition.
func TestParallelTrackerRejectsUnsupportedModes(t *testing.T) {
	base := parallelCfg()
	base.ParallelTracker = 4
	cases := map[string]func(*Config){
		"K=3":       func(c *Config) { c.ParallelTracker = 3 },
		"K=16":      func(c *Config) { c.ParallelTracker = 16 },
		"chaos":     func(c *Config) { c.Chaos = &chaos.Config{DelayJitter: true} },
		"emulation": func(c *Config) { c.Emulation = &EmulationConfig{} },
		"heartbeat": func(c *Config) { c.Heartbeat = 50 * time.Millisecond },
		"tracer":    func(c *Config) { c.Tracer = trace.New(16) },
		"onfound":   func(c *Config) { c.OnFound = func(tracker.FindResult) {} },
	}
	for name, mutate := range cases {
		cfg := base
		mutate(&cfg)
		if _, err := NewParallel(cfg); err == nil {
			t.Errorf("%s: NewParallel accepted an unsupported config", name)
		}
	}
	if _, err := NewParallel(base); err != nil {
		t.Fatalf("base config rejected: %v", err)
	}
}

// A find for an untracked object or an off-grid origin fails at issue time;
// a failing find input on a remote stack surfaces from Settle.
func TestParallelTrackerFindErrors(t *testing.T) {
	cfg := parallelCfg()
	cfg.ParallelTracker = 2
	ps, err := NewParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Settle(); err != nil {
		t.Fatal(err)
	}
	if _, err := ps.FindObject(0, 99); err == nil {
		t.Error("find for untracked object accepted")
	}
	if _, err := ps.FindObject(9999, tracker.DefaultObject); err == nil {
		t.Error("find from off-grid region accepted")
	}
	if _, err := ps.Find(250); err != nil { // cross-band: a real engine frame
		t.Fatal(err)
	}
	if err := ps.Settle(); err != nil {
		t.Fatal(err)
	}
	if got := ps.Founds(); len(got) != 1 || got[0].Origin != 250 {
		t.Fatalf("founds %+v, want one result from origin 250", got)
	}
}

// A batch AddObjects rejects — the primary id, a duplicate, an off-grid
// start, or a stack refusing its group — must leave no trace: none of its
// ids is homed, a find for one fails at issue time, and the valid part of
// the batch attaches on retry.
func TestParallelTrackerAddObjectsRejectsWholeBatch(t *testing.T) {
	cfg := parallelCfg()
	cfg.ParallelTracker = 2
	ps, err := NewParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Settle(); err != nil {
		t.Fatal(err)
	}
	// Both valid placements and the stack-side conflict start in band 0, so
	// the refusing stack is the only one the batch reaches.
	good := []ObjectPlacement{{Obj: 1, Start: 7}, {Obj: 2, Start: 18}}
	if _, err := ps.Stack(0).AddObject(3, 9); err != nil {
		t.Fatal(err)
	}
	if err := ps.Settle(); err != nil {
		t.Fatal(err)
	}
	bad := map[string]ObjectPlacement{
		"primary id":      {Obj: tracker.DefaultObject, Start: 5},
		"duplicate id":    {Obj: 1, Start: 9},
		"off-grid start":  {Obj: 4, Start: 9999},
		"stack-side dup":  {Obj: 3, Start: 9},
		"off-grid, first": {Obj: 4, Start: -2},
	}
	for name, p := range bad {
		batch := append(append([]ObjectPlacement(nil), good...), p)
		if name == "off-grid, first" {
			batch = append([]ObjectPlacement{p}, good...)
		}
		if _, err := ps.AddObjects(batch); err == nil {
			t.Fatalf("%s: batch accepted", name)
		}
		for _, q := range batch {
			if q.Obj == tracker.DefaultObject {
				continue
			}
			if l, ok := ps.HomeOf(q.Obj); ok {
				t.Errorf("%s: rejected batch left object %d homed on band %d", name, q.Obj, l)
			}
			if _, err := ps.FindObject(0, q.Obj); err == nil {
				t.Errorf("%s: find for object %d of a rejected batch accepted", name, q.Obj)
			}
		}
	}
	if _, err := ps.AddObjects(good); err != nil {
		t.Fatalf("retry of the valid placements: %v", err)
	}
	if err := ps.Settle(); err != nil {
		t.Fatal(err)
	}
	if _, err := ps.FindObject(250, 2); err != nil {
		t.Fatal(err)
	}
	if err := ps.Settle(); err != nil {
		t.Fatal(err)
	}
	if got := ps.Founds(); len(got) != 1 || got[0].FoundAt != 18 {
		t.Fatalf("founds %+v, want object 2 found at region 18", got)
	}
}

// sameInstantOrigins is the six-origin shape: the object sits in home band 3
// (rows 6–7 of the 16×16 grid) and six finds are issued at one settled
// instant from six other bands, alternating between the far and the near
// side of the home band, so call order and (source shard) order disagree.
var sameInstantOrigins = []geo.RegionID{216, 24, 184, 56, 152, 88}

const sameInstantStart = geo.RegionID(120)

// Find inputs reach a stack in call order at every K: six finds issued at
// one settled instant from origin bands on both sides of the home band are
// answered in the same order — and leave the same founds, region encodings
// and merged ledger — at K = 1, 2, 4, 8 and on the sequential service.
func TestParallelTrackerSameInstantFindsKeepCallOrder(t *testing.T) {
	cfg := parallelCfg()
	cfg.Start = sameInstantStart

	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Settle(); err != nil {
		t.Fatal(err)
	}
	for _, u := range sameInstantOrigins {
		if _, err := svc.Find(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Settle(); err != nil {
		t.Fatal(err)
	}
	wantOrder := svc.Founds()
	if len(wantOrder) != len(sameInstantOrigins) {
		t.Fatalf("sequential: %d founds, want %d", len(wantOrder), len(sameInstantOrigins))
	}
	seq := observeSequential(t, svc)

	for _, k := range []int{1, 2, 4, 8} {
		cfg.ParallelTracker = k
		ps, err := NewParallel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := ps.Settle(); err != nil {
			t.Fatal(err)
		}
		for _, u := range sameInstantOrigins {
			if _, err := ps.Find(u); err != nil {
				t.Fatal(err)
			}
		}
		if err := ps.Settle(); err != nil {
			t.Fatal(err)
		}
		// One object, one home stack: that stack's report order is the
		// order the finds were answered in.
		home, _ := ps.HomeOf(tracker.DefaultObject)
		if got := ps.Stack(ps.execOf(home)).Founds(); !reflect.DeepEqual(got, wantOrder) {
			t.Errorf("K=%d: finds answered in order\n %+v\nsequential service answered\n %+v", k, got, wantOrder)
		}
		assertMatchesSequential(t, k, observeParallel(t, ps), seq)
	}
}
