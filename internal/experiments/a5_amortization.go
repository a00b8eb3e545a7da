package experiments

import (
	"fmt"

	"vinestalk/internal/core"
	"vinestalk/internal/geo"
)

// A5Amortization regenerates the counting argument inside the Theorem 4.9
// proof: "a level 0 pointer is updated as often as every step ... a level
// l pointer is only updated after a non-neighboring level l−1 cluster is
// reached", i.e. at most once per q(l−1) steps. The evader sweeps straight
// across a 32×32 grid — crossing a level-l block boundary exactly every
// r^l steps — and the measured per-level grow-receipt counts must fall
// geometrically by ≈ r per level.
// A5 is a single-scenario experiment (one evader, one grid), so it has no
// parameter sweep to parallelize; it runs sequentially under any Env.
func A5Amortization(env Env) (*Result, error) {
	side := 32
	sweeps := 3
	if env.Quick {
		side = 16
		sweeps = 2
	}
	res := &Result{Table: Table{
		ID:      "A5",
		Title:   "pointer-update frequency per level (Theorem 4.9's amortization)",
		Claim:   "level-l pointers update ≈ once per q(l−1) = r^{l−1} steps: grow receipts fall ≈ r-fold per level",
		Columns: []string{"level", "grow receipts", "steps per update", "ratio to previous level"},
	}}

	svc, err := core.New(core.Config{
		Width:           side,
		AlwaysAliveVSAs: true,
		Start:           geo.RegionID((side / 2) * side), // row start, column 0
		FormulaGeometry: side >= 32,
		Seed:            71,
	})
	if err != nil {
		return nil, err
	}
	if err := svc.Settle(); err != nil {
		return nil, err
	}
	svc.Network().ResetGrowReceipts()

	// Straight sweeps back and forth along the row: every level-l block
	// boundary is crossed once per r^l steps.
	g := svc.Tiling()
	y := side / 2
	steps := 0
	for s := 0; s < sweeps; s++ {
		xs := make([]int, 0, side-1)
		if s%2 == 0 {
			for x := 1; x < side; x++ {
				xs = append(xs, x)
			}
		} else {
			for x := side - 2; x >= 0; x-- {
				xs = append(xs, x)
			}
		}
		for _, x := range xs {
			if err := svc.MoveEvader(g.RegionAt(x, y)); err != nil {
				return nil, err
			}
			if err := svc.Settle(); err != nil {
				return nil, err
			}
			steps++
		}
	}

	counts := svc.Network().GrowReceiptsByLevel()
	type point struct {
		level int
		ratio float64
	}
	var points []point
	prev := 0
	for l, c := range counts {
		perUpdate := 0.0
		if c > 0 {
			perUpdate = float64(steps) / float64(c)
		}
		ratio := 0.0
		if prev > 0 && c > 0 {
			ratio = float64(prev) / float64(c)
		}
		res.Table.AddRow(l, c, perUpdate, ratio)
		if l >= 1 && l < len(counts)-1 {
			points = append(points, point{level: l, ratio: ratio})
		}
		prev = c
	}

	// Shape: geometric decay ≈ r = 2 per level (boundary effects and the
	// double-counted lateral re-adoptions keep it approximate).
	ok := true
	detail := ""
	for _, p := range points {
		if p.ratio < 1.4 || p.ratio > 3.5 {
			ok = false
		}
		detail += fmt.Sprintf("L%d:%.2f ", p.level, p.ratio)
	}
	res.check("geometric update-frequency decay", ok,
		"per-level receipt ratios %s(want ≈ r = 2)", detail)
	res.check("level 0 updates every step", counts[0] >= steps,
		"%d receipts over %d steps", counts[0], steps)
	return res, nil
}
