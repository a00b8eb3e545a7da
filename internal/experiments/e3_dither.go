package experiments

import (
	"fmt"

	"vinestalk/internal/core"
	"vinestalk/internal/geo"
)

// E3Dithering regenerates the §IV motivation for lateral links (and Lemma
// 4.2's bound of one lateral per level per move): an object oscillating
// across the top-level cluster boundary. With lateral links the per-move
// work stays constant as the grid grows; without them every crossing
// rebuilds the path to the root, so per-move work grows with the diameter.
func E3Dithering(env Env) (*Result, error) {
	sides := []int{8, 16, 32}
	oscillations := 24
	if env.Quick {
		sides = []int{8, 16}
		oscillations = 12
	}
	res := &Result{Table: Table{
		ID:      "E3",
		Title:   "boundary oscillation (dithering) work per move",
		Claim:   "lateral links keep dithering local; without them work grows with D (§IV)",
		Columns: []string{"side", "lateral work/move", "no-lateral work/move", "ratio"},
	}}

	// One sweep cell per grid size; each cell runs both variants on its own
	// pair of services.
	type point struct{ lateral, nolateral float64 }
	points, err := cells(env, sides, func(side int) (point, error) {
		lat, err := ditherWorkPerMove(side, oscillations, false)
		if err != nil {
			return point{}, err
		}
		nolat, err := ditherWorkPerMove(side, oscillations, true)
		if err != nil {
			return point{}, err
		}
		return point{lateral: lat, nolateral: nolat}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, p := range points {
		res.Table.AddRow(sides[i], p.lateral, p.nolateral, p.nolateral/p.lateral)
	}

	last := points[len(points)-1]
	res.check("laterals win at scale", last.nolateral > 2*last.lateral,
		"no-lateral %.2f vs lateral %.2f per move on the largest grid", last.nolateral, last.lateral)
	res.check("lateral cost flat", points[len(points)-1].lateral <= 3*points[0].lateral,
		"lateral work/move %.2f (small grid) -> %.2f (large grid)",
		points[0].lateral, points[len(points)-1].lateral)
	res.check("no-lateral cost grows", last.nolateral >= 1.5*points[0].nolateral,
		"no-lateral work/move %.2f -> %.2f", points[0].nolateral, last.nolateral)
	return res, nil
}

// ditherWorkPerMove oscillates the evader across the vertical top-level
// boundary (columns side/2−1 and side/2) and returns the settled per-move
// protocol work.
func ditherWorkPerMove(side, oscillations int, noLateral bool) (float64, error) {
	svc, err := core.New(core.Config{
		Width:           side,
		AlwaysAliveVSAs: true,
		Start:           boundaryRegion(side, side/2-1),
		NoLateralLinks:  noLateral,
		FormulaGeometry: side >= 32,
	})
	if err != nil {
		return 0, err
	}
	if err := svc.Settle(); err != nil {
		return 0, err
	}
	g := svc.Tiling()
	a := boundaryRegion(side, side/2-1)
	b := boundaryRegion(side, side/2)
	_ = g
	cur, next := a, b
	var work int64
	moves := 0
	for i := 0; i < oscillations; i++ {
		_, w, _, err := svc.MoveStats(next)
		if err != nil {
			return 0, fmt.Errorf("oscillation %d: %w", i, err)
		}
		work += w
		moves++
		cur, next = next, cur
	}
	return float64(work) / float64(moves), nil
}

// boundaryRegion returns the region in column x at the vertical midline.
func boundaryRegion(side, x int) geo.RegionID {
	return geo.RegionID((side/2)*side + x)
}
