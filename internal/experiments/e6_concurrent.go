package experiments

import (
	"fmt"
	"time"

	"vinestalk/internal/core"
	"vinestalk/internal/evader"
	"vinestalk/internal/sim"
	"vinestalk/internal/tracker"
)

// E6Concurrent regenerates the §VI claims: with the object relocating
// continuously (no waiting for updates) and finds running concurrently,
// every find still completes at the object's region, and its cost stays
// within a constant factor of the atomic case — as long as the object is
// slow enough. Sweeping the move period down shows the degradation the
// paper's speed restriction exists to prevent.
func E6Concurrent(env Env) (*Result, error) {
	side := 16
	findCount := 10
	if env.Quick {
		side = 8
		findCount = 6
	}
	// Move periods as multiples of the unit delay δ+e. The schedule's
	// level-0 shrink timer is ~4 units, so periods well above that are
	// "legal speed" and tiny periods violate it.
	periods := []int{64, 32, 16, 8, 4, 2}
	res := &Result{Table: Table{
		ID:      "E6",
		Title:   "concurrent moves and finds vs evader speed",
		Claim:   "finds complete at the object's region with cost within a constant factor of atomic; search climbs at most one extra level; degradation only past the speed bound (§VI)",
		Columns: []string{"move period", "finds issued", "finds done", "avg latency", "stretch vs atomic", "max search level"},
	}}

	unit := 15 * time.Millisecond

	// Atomic reference: stationary evader.
	atomicLat, atomicLevel, err := atomicFindReference(side)
	if err != nil {
		return nil, err
	}

	// One sweep cell per move period, each with its own service and walker;
	// the atomic reference above is shared read-only.
	type point struct {
		period   int
		issued   int
		done     int
		avg      time.Duration
		stretch  float64
		maxLevel int
	}
	points, err := cells(env, periods, func(p int) (point, error) {
		period := sim.Time(p) * unit
		var svc *core.Service
		// found holds the found-output time of each find this cell issued,
		// read in the found callback.
		found := make(map[tracker.FindID]sim.Time, findCount)
		svc, err := core.New(core.Config{
			Width:           side,
			AlwaysAliveVSAs: true,
			Start:           centerRegion(side),
			Seed:            int64(p),
			OnFound:         func(r tracker.FindResult) { found[r.ID] = svc.Kernel().Now() },
		})
		if err != nil {
			return point{}, err
		}
		if err := svc.Settle(); err != nil {
			return point{}, err
		}
		evader.StartWalker(svc.Kernel(), svc.Evader(),
			evader.RandomWalk{Tiling: svc.Tiling()}, period, -1, nil)

		svc.Network().ResetFindQueryLevel()
		issued := make([]tracker.FindID, 0, findCount)
		starts := make(map[tracker.FindID]sim.Time)
		origin := svc.Tiling().RegionAt(0, 0)
		for i := 0; i < findCount; i++ {
			svc.RunFor(2 * period)
			id, err := svc.Find(origin)
			if err != nil {
				return point{}, err
			}
			issued = append(issued, id)
			starts[id] = svc.Kernel().Now()
		}
		// Give stragglers ample time, then stop the world.
		svc.RunFor(sim.Time(side) * 64 * unit)
		done := 0
		for _, id := range issued {
			if svc.FindDone(id) {
				done++
			}
		}
		totalLat, cnt := foundLatencies(issued, starts, found)
		avg := time.Duration(0)
		stretch := 0.0
		if cnt > 0 {
			avg = totalLat / time.Duration(cnt)
			stretch = float64(avg) / float64(atomicLat)
		}
		return point{
			period: p, issued: len(issued), done: done, avg: avg,
			stretch: stretch, maxLevel: svc.Network().MaxFindQueryLevel(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, p := range points {
		res.Table.AddRow(fmt.Sprintf("%d units", p.period), p.issued, p.done, p.avg, p.stretch, p.maxLevel)
	}

	// Shape checks: at legal speeds (slowest two periods) everything
	// completes with bounded stretch; the sweep exists to expose
	// degradation at illegal speeds, which we do not assert against.
	slow := points[0]
	res.check("slow evader: all finds complete", slow.done == findCount,
		"period %d units: %d/%d", slow.period, slow.done, findCount)
	res.check("slow evader: bounded stretch", slow.stretch > 0 && slow.stretch < 4,
		"stretch %.2f vs atomic", slow.stretch)
	second := points[1]
	res.check("moderate speed still completes", second.done == findCount,
		"period %d units: %d/%d", second.period, second.done, findCount)
	// §VI: the search phase climbs at most one level above the atomic
	// case while the object respects the speed bound.
	res.check("search climbs at most one extra level",
		slow.maxLevel <= atomicLevel+1 && second.maxLevel <= atomicLevel+1,
		"atomic max level %d; slow %d, moderate %d", atomicLevel, slow.maxLevel, second.maxLevel)
	return res, nil
}

// atomicFindReference measures the atomic-case find latency and highest
// search level from the corner with a stationary evader at the center.
func atomicFindReference(side int) (sim.Time, int, error) {
	svc, err := core.New(core.Config{
		Width:           side,
		AlwaysAliveVSAs: true,
		Start:           centerRegion(side),
	})
	if err != nil {
		return 0, 0, err
	}
	if err := svc.Settle(); err != nil {
		return 0, 0, err
	}
	svc.Network().ResetFindQueryLevel()
	_, _, lat, err := svc.FindStats(svc.Tiling().RegionAt(0, 0))
	return lat, svc.Network().MaxFindQueryLevel(), err
}

// foundLatencies sums found-output latencies for the given finds.
func foundLatencies(ids []tracker.FindID, starts, found map[tracker.FindID]sim.Time) (sim.Time, int) {
	var total sim.Time
	n := 0
	for _, id := range ids {
		if t, ok := found[id]; ok {
			total += t - starts[id]
			n++
		}
	}
	return total, n
}
