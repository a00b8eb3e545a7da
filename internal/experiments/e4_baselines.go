package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"vinestalk/internal/baseline"
	"vinestalk/internal/core"
	"vinestalk/internal/geo"
	"vinestalk/internal/hier"
	"vinestalk/internal/sim"
)

// e4Outcome holds one tracker's per-phase work on one grid size.
type e4Outcome struct {
	moveWork   int64 // random-waypoint phase
	farFind    int64 // finds from grid corners
	localFind  int64 // finds adjacent to the object
	ditherWork int64 // boundary oscillation phase
}

// E4Baselines regenerates the related-work comparison of §I. Absolute
// constants at simulable grid sizes favor the idealized baselines, so —
// as with any asymptotic claim — the experiment verifies growth *shape*
// across a diameter sweep:
//
//   - centralized (rootptr) move work grows ~linearly with D, VINESTALK's
//     grows ~log D (Awerbuch-Peleg-style comparison);
//   - flooding find work grows ~quadratically in distance, VINESTALK's
//     linearly (Theorem 5.2 vs expanding ring);
//   - the hierarchical directory without lateral links (hierdir, GLS-like)
//     pays ~D per move under dithering, VINESTALK stays flat (§IV).
func E4Baselines(env Env) (*Result, error) {
	sides := []int{8, 16, 32}
	if env.Quick {
		sides = []int{8, 24}
	}
	const (
		findsEach   = 6
		ditherMoves = 12
	)
	res := &Result{Table: Table{
		ID:    "E4",
		Title: "tracker comparison: work by phase and grid size",
		Claim: "centralized moves ~D vs VINESTALK ~log D; flood finds ~d² vs ~d; dithering ~D for pointer hierarchies without laterals vs flat (§I)",
		Columns: []string{"side", "tracker", "move work", "far-find work",
			"local-find work", "dither work"},
	}}

	// One sweep cell per grid size: each cell builds its own workload and
	// runs all four trackers on private kernels.
	type cell struct {
		v  e4Outcome
		bs map[string]e4Outcome
	}
	measured, err := cells(env, sides, func(side int) (cell, error) {
		// The walk length scales with the grid so the object actually
		// ranges over it (a fixed-length walk would hide the centralized
		// scheme's Θ(D) move cost behind a near-home workload).
		workload := buildE4Workload(side, 2*side, findsEach, ditherMoves)
		v, err := runE4Vinestalk(side, workload)
		if err != nil {
			return cell{}, fmt.Errorf("side %d vinestalk: %w", side, err)
		}
		bs, err := runE4Baselines(side, workload)
		if err != nil {
			return cell{}, fmt.Errorf("side %d baselines: %w", side, err)
		}
		return cell{v: v, bs: bs}, nil
	})
	if err != nil {
		return nil, err
	}

	vines := make(map[int]e4Outcome)
	base := make(map[int]map[string]e4Outcome)
	for i, c := range measured {
		side := sides[i]
		vines[side] = c.v
		res.Table.AddRow(side, "vinestalk", c.v.moveWork, c.v.farFind, c.v.localFind, c.v.ditherWork)
		base[side] = c.bs
		for _, name := range []string{"rootptr", "flood", "hierdir"} {
			o := c.bs[name]
			res.Table.AddRow(side, name, o.moveWork, o.farFind, o.localFind, o.ditherWork)
		}
	}

	small, large := sides[0], sides[len(sides)-1]
	growth := func(a, b int64) float64 {
		if a <= 0 {
			return 0
		}
		return float64(b) / float64(a)
	}
	vGrow := growth(vines[small].moveWork, vines[large].moveWork)
	rGrow := growth(base[small]["rootptr"].moveWork, base[large]["rootptr"].moveWork)
	res.check("centralized move cost scales with D", rGrow > 1.4*vGrow,
		"move-work growth %dx->%dx grid: rootptr %.2fx vs vinestalk %.2fx", small, large, rGrow, vGrow)

	fGrow := growth(base[small]["flood"].farFind, base[large]["flood"].farFind)
	vfGrow := growth(vines[small].farFind, vines[large].farFind)
	res.check("flood find cost quadratic vs linear", fGrow > 1.4*vfGrow,
		"far-find growth: flood %.2fx vs vinestalk %.2fx", fGrow, vfGrow)

	hGrow := growth(base[small]["hierdir"].ditherWork, base[large]["hierdir"].ditherWork)
	vdGrow := growth(vines[small].ditherWork, vines[large].ditherWork)
	res.check("dithering hits pointer hierarchies without laterals", hGrow > 1.4*vdGrow,
		"dither growth: hierdir %.2fx vs vinestalk %.2fx", hGrow, vdGrow)

	res.Table.Notes = append(res.Table.Notes,
		"baselines run on an idealized zero-constant substrate; the checks compare growth shape, per the paper's asymptotic claims")
	return res, nil
}

// e4Workload fixes the trails and find origins shared by all trackers.
type e4Workload struct {
	trail   []geo.RegionID // waypoint walk, trail[0] = start
	far     []geo.RegionID // far find origins
	dither  []geo.RegionID // oscillation pair (a, b)
	localD  int            // local finds issued at this Chebyshev offset
	tilings *geo.GridTiling
}

func buildE4Workload(side, moves, findsEach, ditherMoves int) e4Workload {
	t := geo.MustGridTiling(side, side)
	graph := geo.NewGraph(t)
	rng := rand.New(rand.NewSource(int64(side) * 1000))
	start := centerRegion(side)
	trail := []geo.RegionID{start}
	target := geo.RegionID(rng.Intn(t.NumRegions()))
	for len(trail) <= moves {
		cur := trail[len(trail)-1]
		for target == cur {
			target = geo.RegionID(rng.Intn(t.NumRegions()))
		}
		trail = append(trail, graph.NextHop(cur, target))
	}
	far := []geo.RegionID{
		t.RegionAt(0, 0), t.RegionAt(side-1, 0), t.RegionAt(0, side-1),
		t.RegionAt(side-1, side-1), t.RegionAt(side/2, 0), t.RegionAt(0, side/2),
	}[:findsEach]
	// The dithering pair straddles the *highest*-level cluster boundary:
	// the edge of the largest sub-root block (x = largest power of r below
	// side), which is side/2 only for power-of-r grids.
	block := 1
	for block*2 < side {
		block *= 2
	}
	dither := []geo.RegionID{
		t.RegionAt(block-1, side/2), t.RegionAt(block, side/2),
	}
	return e4Workload{trail: trail, far: far, dither: dither, localD: 2, tilings: t}
}

// localOrigin returns a region at Chebyshev offset d from u (clipped).
func (w e4Workload) localOrigin(u geo.RegionID, d int) geo.RegionID {
	x, y := w.tilings.Coord(u)
	for _, c := range [][2]int{{x + d, y}, {x - d, y}, {x, y + d}, {x, y - d}, {x + d, y + d}} {
		if v := w.tilings.RegionAt(c[0], c[1]); v != geo.NoRegion && v != u {
			return v
		}
	}
	return u
}

func runE4Vinestalk(side int, w e4Workload) (e4Outcome, error) {
	svc, err := core.New(core.Config{
		Width:           side,
		AlwaysAliveVSAs: true,
		Start:           w.trail[0],
		FormulaGeometry: side >= 32,
		Seed:            5,
	})
	if err != nil {
		return e4Outcome{}, err
	}
	if err := svc.Settle(); err != nil {
		return e4Outcome{}, err
	}
	var out e4Outcome
	// Find phases run with the object parked at the center so the find
	// distances scale with the grid across the sweep.
	for _, u := range w.far {
		_, work, _, err := svc.FindStats(u)
		if err != nil {
			return out, err
		}
		out.farFind += work
	}
	for i := 0; i < len(w.far); i++ {
		origin := w.localOrigin(svc.Evader().Region(), w.localD)
		_, work, _, err := svc.FindStats(origin)
		if err != nil {
			return out, err
		}
		out.localFind += work
	}
	for _, to := range w.trail[1:] {
		_, work, _, err := svc.MoveStats(to)
		if err != nil {
			return out, err
		}
		out.moveWork += work
	}
	// Walk to the dither boundary, then oscillate.
	pathTo := svc.Hierarchy().Graph().Path(svc.Evader().Region(), w.dither[0])
	for _, u := range pathTo[1:] {
		if err := svc.MoveEvader(u); err != nil {
			return out, err
		}
		if err := svc.Settle(); err != nil {
			return out, err
		}
	}
	cur, next := w.dither[0], w.dither[1]
	for i := 0; i < 12; i++ {
		_, work, _, err := svc.MoveStats(next)
		if err != nil {
			return out, err
		}
		out.ditherWork += work
		cur, next = next, cur
	}
	return out, nil
}

func runE4Baselines(side int, w e4Workload) (map[string]e4Outcome, error) {
	unit := 15 * time.Millisecond
	graph := geo.NewGraph(w.tilings)
	h, err := hier.NewGrid(w.tilings, 2)
	if err != nil {
		return nil, err
	}
	k := sim.New(6)
	rp, err := baseline.NewRootPointer(k, graph, unit, centerRegion(side), w.trail[0])
	if err != nil {
		return nil, err
	}
	fl, err := baseline.NewFlood(k, graph, unit, w.trail[0])
	if err != nil {
		return nil, err
	}
	hd, err := baseline.NewHierDir(k, h, unit, w.trail[0])
	if err != nil {
		return nil, err
	}

	out := make(map[string]e4Outcome, 3)
	for _, tr := range []baseline.Tracker{rp, fl, hd} {
		var o e4Outcome
		cur := w.trail[0]

		// Find phases with the object parked at the center (cur).
		snap := tr.Ledger().Snapshot()
		for _, u := range w.far {
			tr.Find(u, func(geo.RegionID) {})
			k.Run()
		}
		o.farFind = tr.Ledger().Snapshot().Sub(snap).TotalWork()

		snap = tr.Ledger().Snapshot()
		for i := 0; i < len(w.far); i++ {
			tr.Find(w.localOrigin(cur, w.localD), func(geo.RegionID) {})
			k.Run()
		}
		o.localFind = tr.Ledger().Snapshot().Sub(snap).TotalWork()

		snap = tr.Ledger().Snapshot()
		for _, to := range w.trail[1:] {
			tr.Move(cur, to)
			k.Run()
			cur = to
		}
		o.moveWork = tr.Ledger().Snapshot().Sub(snap).TotalWork()

		// Move to the dither boundary, then oscillate.
		path := graph.Path(cur, w.dither[0])
		for _, u := range path[1:] {
			tr.Move(cur, u)
			k.Run()
			cur = u
		}
		snap = tr.Ledger().Snapshot()
		next := w.dither[1]
		for i := 0; i < 12; i++ {
			tr.Move(cur, next)
			k.Run()
			cur, next = next, cur
		}
		o.ditherWork = tr.Ledger().Snapshot().Sub(snap).TotalWork()
		out[tr.Name()] = o
	}
	return out, nil
}
