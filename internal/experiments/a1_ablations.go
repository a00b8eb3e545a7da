package experiments

import (
	"fmt"
	"time"

	"vinestalk/internal/core"
	"vinestalk/internal/evader"
	"vinestalk/internal/geo"
	"vinestalk/internal/hier"
	"vinestalk/internal/sim"
	"vinestalk/internal/tracker"
)

// A1BaseSweep ablates the hierarchy base r. The grid corollary of Theorem
// 4.9 gives amortized move work O(d·r·log_r D) = O(d·(r/log r)·log D), so
// r=2 and r=4 should cost about the same per move and r=3 slightly less,
// while find work (Theorem 5.2's Σ(1+ω(j))n(j) term) stays O(d) for every
// base. The check is that no base blows up: all bases stay within a small
// constant factor on both operations, and the protocol stays correct.
func A1BaseSweep(env Env) (*Result, error) {
	side := 16
	steps := 24
	if env.Quick {
		steps = 12
	}
	res := &Result{Table: Table{
		ID:      "A1",
		Title:   "ablation: hierarchy base r",
		Claim:   "move work ∝ (r/log r)·log D is nearly base-independent; finds stay O(d) for every r (Thm 4.9/5.2 corollaries)",
		Columns: []string{"r", "MAX", "move work/step", "find work (corner)", "find latency"},
	}}

	// One sweep cell per hierarchy base, each on its own service.
	type point struct {
		r        int
		maxLevel int
		move     float64
		find     float64
		lat      time.Duration
	}
	points, err := cells(env, []int{2, 3, 4}, func(r int) (point, error) {
		svc, err := core.New(core.Config{
			Width:           side,
			Base:            r,
			AlwaysAliveVSAs: true,
			Start:           centerRegion(side),
			Seed:            int64(r),
		})
		if err != nil {
			return point{}, err
		}
		if err := svc.Settle(); err != nil {
			return point{}, err
		}
		// Finds first, with the evader parked at the center, averaged over
		// all four corners (same distance for every base).
		g := svc.Tiling()
		corners := []geo.RegionID{
			g.RegionAt(0, 0), g.RegionAt(side-1, 0),
			g.RegionAt(0, side-1), g.RegionAt(side-1, side-1),
		}
		var findWork int64
		var lat sim.Time
		for _, u := range corners {
			_, fw, l, err := svc.FindStats(u)
			if err != nil {
				return point{}, fmt.Errorf("r=%d find: %w", r, err)
			}
			findWork += fw
			lat += l
		}

		model := evader.RandomWalk{Tiling: svc.Tiling()}
		var moveWork int64
		for i := 0; i < steps; i++ {
			next := model.Next(svc.Kernel().Rand(), svc.Evader().Region())
			_, w, _, err := svc.MoveStats(next)
			if err != nil {
				return point{}, fmt.Errorf("r=%d: %w", r, err)
			}
			moveWork += w
		}
		return point{
			r:        r,
			maxLevel: svc.Hierarchy().MaxLevel(),
			move:     float64(moveWork) / float64(steps),
			find:     float64(findWork) / float64(len(corners)),
			lat:      time.Duration(int64(lat) / int64(len(corners))),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, p := range points {
		res.Table.AddRow(p.r, p.maxLevel, p.move, p.find, p.lat)
	}

	minM, maxM := points[0].move, points[0].move
	minF, maxF := points[0].find, points[0].find
	for _, p := range points[1:] {
		minM, maxM = minFloat(minM, p.move), maxFloat(maxM, p.move)
		minF, maxF = minFloat(minF, p.find), maxFloat(maxF, p.find)
	}
	res.check("move cost base-insensitive", maxM <= 3*minM, "move work/step spread %.2f..%.2f", minM, maxM)
	res.check("find cost base-insensitive", maxF <= 3*minF, "find work spread %.2f..%.2f", minF, maxF)
	return res, nil
}

// A2HeadPlacement ablates the clusterhead selector (the paper allows any
// member, §II-B): central heads versus minimum-id (corner) heads. Central
// heads shorten head-to-head routes, so both move and find work should be
// no worse — this quantifies the constant-factor price of careless head
// placement.
func A2HeadPlacement(env Env) (*Result, error) {
	side := 16
	steps := 24
	if env.Quick {
		steps = 12
	}
	res := &Result{Table: Table{
		ID:      "A2",
		Title:   "ablation: clusterhead placement",
		Claim:   "any member may head a cluster (§II-B); central heads only improve constants",
		Columns: []string{"heads", "move work/step", "find work (corner)"},
	}}

	measure := func(sel hier.HeadSelector, name string) (float64, float64, error) {
		tiling := geo.MustGridTiling(side, side)
		h, err := hier.NewGrid(tiling, 2, hier.WithHeadSelector(sel))
		if err != nil {
			return 0, 0, err
		}
		svc, err := coreWithHierarchy(h, centerRegion(side))
		if err != nil {
			return 0, 0, err
		}
		if err := svc.Settle(); err != nil {
			return 0, 0, err
		}
		model := evader.RandomWalk{Tiling: svc.Tiling()}
		var moveWork int64
		for i := 0; i < steps; i++ {
			next := model.Next(svc.Kernel().Rand(), svc.Evader().Region())
			_, w, _, err := svc.MoveStats(next)
			if err != nil {
				return 0, 0, fmt.Errorf("%s: %w", name, err)
			}
			moveWork += w
		}
		_, fw, _, err := svc.FindStats(svc.Tiling().RegionAt(0, 0))
		if err != nil {
			return 0, 0, fmt.Errorf("%s find: %w", name, err)
		}
		return float64(moveWork) / float64(steps), float64(fw), nil
	}

	// One sweep cell per head-placement variant; each builds its own tiling
	// and selector so nothing is shared across cells.
	type variant struct {
		label string
		sel   func(*geo.GridTiling) hier.HeadSelector
	}
	variants := []variant{
		{"central", func(t *geo.GridTiling) hier.HeadSelector { return hier.GridCentroidHead(t) }},
		{"min-id", func(*geo.GridTiling) hier.HeadSelector { return hier.MinIDHead }},
	}
	type point struct{ move, find float64 }
	points, err := cells(env, variants, func(v variant) (point, error) {
		t := geo.MustGridTiling(side, side)
		move, find, err := measure(v.sel(t), v.label)
		if err != nil {
			return point{}, err
		}
		return point{move: move, find: find}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, p := range points {
		res.Table.AddRow(variants[i].label, p.move, p.find)
	}
	centralMove, centralFind := points[0].move, points[0].find
	cornerMove, cornerFind := points[1].move, points[1].find

	res.check("central heads no worse on moves", centralMove <= 1.15*cornerMove,
		"central %.2f vs min-id %.2f per move", centralMove, cornerMove)
	res.check("both placements correct", centralFind > 0 && cornerFind > 0,
		"finds completed under both placements")
	return res, nil
}

// A3ScheduleSlack ablates the grow/shrink timer slack above condition (1)
// of §IV-B: the minimum legal margin versus the default versus 4x-inflated
// shrink timers. Work should be insensitive (the same messages flow), but
// settle time grows with slack — showing the condition, not the constants,
// is what correctness rests on.
func A3ScheduleSlack(env Env) (*Result, error) {
	side := 16
	steps := 16
	if env.Quick {
		steps = 8
	}
	res := &Result{Table: Table{
		ID:      "A3",
		Title:   "ablation: timer slack above condition (1)",
		Claim:   "condition (1) is the correctness line; extra slack trades settle latency for nothing (§IV-B)",
		Columns: []string{"schedule", "move work/step", "settle time/step", "Thm 4.8 holds"},
	}}

	unit := 15 * time.Millisecond
	geom := hier.GridFormulas(2, 4) // 16x16 has MAX=4
	def := tracker.DefaultSchedule(geom, unit)

	tight := tracker.Schedule{G: append([]sim.Time(nil), def.G...), S: make([]sim.Time, len(def.S))}
	for l := range tight.S {
		// Shrink timers with the minimum slack that still satisfies (1):
		// s(l) = g(l) + diff(l) where Σdiff barely exceeds (δ+e)n(l).
		prevN := -1
		if l > 0 {
			prevN = geom.N[l-1]
		}
		tight.S[l] = tight.G[l] + unit*sim.Time(geom.N[l]-prevN) // Σ = unit·(n(l)+1)
	}
	slack := tracker.Schedule{G: append([]sim.Time(nil), def.G...), S: make([]sim.Time, len(def.S))}
	for l := range slack.S {
		slack.S[l] = def.G[l] + 4*(def.S[l]-def.G[l])
	}

	type point struct {
		work   float64
		settle time.Duration
		ok     bool
	}
	measure := func(name string, sch tracker.Schedule) (point, error) {
		svc, err := core.New(core.Config{
			Width:           side,
			AlwaysAliveVSAs: true,
			Start:           centerRegion(side),
			Schedule:        &sch,
			Seed:            31,
		})
		if err != nil {
			return point{}, fmt.Errorf("%s: %w", name, err)
		}
		if err := svc.Settle(); err != nil {
			return point{}, err
		}
		model := evader.RandomWalk{Tiling: svc.Tiling()}
		var work int64
		var settle sim.Time
		ok := true
		for i := 0; i < steps; i++ {
			next := model.Next(svc.Kernel().Rand(), svc.Evader().Region())
			_, w, dt, err := svc.MoveStats(next)
			if err != nil {
				return point{}, fmt.Errorf("%s: %w", name, err)
			}
			work += w
			settle += dt
			if err := svc.CheckTheorem48(); err != nil {
				ok = false
			}
		}
		return point{
			work:   float64(work) / float64(steps),
			settle: settle / time.Duration(steps),
			ok:     ok,
		}, nil
	}

	// One sweep cell per schedule variant (the schedules themselves are
	// cheap, deterministic derivations shared read-only).
	type variant struct {
		name string
		sch  tracker.Schedule
	}
	variants := []variant{
		{"tight (min slack)", tight},
		{"default", def},
		{"4x slack", slack},
	}
	points, err := cells(env, variants, func(v variant) (point, error) {
		return measure(v.name, v.sch)
	})
	if err != nil {
		return nil, err
	}
	for i, p := range points {
		res.Table.AddRow(variants[i].name, p.work, p.settle, p.ok)
	}
	tp, dp, sp := points[0], points[1], points[2]

	res.check("all schedules correct", tp.ok && dp.ok && sp.ok, "Theorem 4.8 held after every move under all three")
	res.check("work slack-insensitive", maxFloat(tp.work, maxFloat(dp.work, sp.work)) <=
		1.5*minFloat(tp.work, minFloat(dp.work, sp.work)),
		"work/step: tight %.2f, default %.2f, 4x %.2f", tp.work, dp.work, sp.work)
	res.check("slack costs settle latency", sp.settle > dp.settle,
		"settle/step: default %v vs 4x slack %v", dp.settle, sp.settle)
	return res, nil
}

// coreWithHierarchy builds a Service over a pre-built hierarchy (used by
// the head-placement ablation, which needs a custom head selector).
func coreWithHierarchy(h *hier.Hierarchy, start geo.RegionID) (*core.Service, error) {
	return core.NewWithHierarchy(h, core.Config{
		Width:           h.Tiling().(*geo.GridTiling).Width(),
		Height:          h.Tiling().(*geo.GridTiling).Height(),
		AlwaysAliveVSAs: true,
		Start:           start,
		Seed:            23,
	})
}
