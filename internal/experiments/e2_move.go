package experiments

import (
	"fmt"
	"math"
	"time"

	"vinestalk/internal/core"
	"vinestalk/internal/evader"
	"vinestalk/internal/metrics"
	"vinestalk/internal/sim"
)

// E2MoveCost regenerates Theorem 4.9's grid corollary: updating the
// tracking structure for moves totalling distance d costs amortized
// O(d·r·log_r D) work and time. A random walk of fixed length runs on
// grids of doubling diameter; per-step work must grow like log D — far
// slower than D itself.
func E2MoveCost(env Env) (*Result, error) {
	sides := []int{8, 16, 32, 64}
	steps := 30
	if env.Quick {
		sides = []int{8, 16, 32}
		steps = 15
	}
	res := &Result{Table: Table{
		ID:    "E2",
		Title: "amortized move cost vs network diameter D",
		Claim: "work and time O(d·r·log_r D) for total move distance d — Theorem 4.9 corollary",
		Columns: []string{"side", "D", "log2(D)", "steps", "work/step", "time/step", "(work/step)/log2(D)",
			"time p50", "time p99", "time max"},
	}}

	// One sweep cell per grid size: each builds its own service and walks
	// its own seeded random walk.
	type point struct {
		d        int
		workStep float64
		timeStep time.Duration
		lat      metrics.LatencyStats // per-step settle-time distribution
		ledger   *metrics.Export
	}
	points, err := cells(env, sides, func(side int) (point, error) {
		svc, err := core.New(core.Config{
			Width:           side,
			AlwaysAliveVSAs: true,
			Start:           centerRegion(side),
			FormulaGeometry: side >= 32,
			Seed:            7,
		})
		if err != nil {
			return point{}, err
		}
		if err := svc.Settle(); err != nil {
			return point{}, err
		}
		model := evader.RandomWalk{Tiling: svc.Tiling()}
		var work int64
		var elapsed sim.Time
		for i := 0; i < steps; i++ {
			next := model.Next(svc.Kernel().Rand(), svc.Evader().Region())
			_, w, dt, err := svc.MoveStats(next)
			if err != nil {
				return point{}, fmt.Errorf("side %d step %d: %w", side, i, err)
			}
			work += w
			elapsed += dt
		}
		return point{
			d:        side - 1,
			workStep: float64(work) / float64(steps),
			timeStep: time.Duration(int64(elapsed) / int64(steps)),
			// MoveStats records each step's settle time in the ledger's
			// "move" histogram; the full distribution is checked below.
			lat:    svc.Ledger().Latency("move"),
			ledger: svc.Ledger().Export(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, p := range points {
		logD := math.Log2(float64(p.d))
		res.Table.AddRow(sides[i], p.d, logD, steps, p.workStep, p.timeStep, p.workStep/logD,
			p.lat.P50, p.lat.P99, p.lat.Max)
		res.addLedger(fmt.Sprintf("side=%d", sides[i]), p.ledger)
	}

	// Shape checks: growth across the sweep must be far below linear in D
	// (log-like), and per-step work normalized by log D must stay within a
	// constant factor.
	first, last := points[0], points[len(points)-1]
	growth := last.workStep / first.workStep
	dGrowth := float64(last.d) / float64(first.d)
	res.check("sublinear in D", growth < dGrowth/2,
		"work/step grew %.2fx while D grew %.2fx", growth, dGrowth)
	minN, maxN := math.Inf(1), 0.0
	for _, p := range points {
		n := p.workStep / math.Log2(float64(p.d))
		minN, maxN = minFloat(minN, n), maxFloat(maxN, n)
	}
	res.check("log-shaped", maxN <= 4*minN,
		"work/step per log2(D) spread %.2f..%.2f", minN, maxN)

	// Distribution-wide Theorem 4.9 checks. The amortization argument
	// permits individual steps far dearer than the average (a level-k
	// boundary crossing runs a timer cascade costing O(r^k)), so the
	// per-walk mean alone can hide a broken tail. Two properties of the
	// whole sample distribution are proved and checked here:
	// (a) every single step — the max sample, p100 — completes within the
	//     non-amortized one-move bound O(D·(δ+e)); and
	// (b) the MEDIAN step stays flat across diameters: low-level crossings
	//     dominate any walk, so p50 must not grow with D at all.
	unit := 15 * time.Millisecond // default δ+e of core.Config
	for i, p := range points {
		bound := 8 * time.Duration(p.d) * unit
		res.check(fmt.Sprintf("side %d: all %d steps within one-move bound", sides[i], steps),
			p.lat.Max <= bound, "max step time %v <= 8·D·(δ+e) = %v",
			p.lat.Max.Round(time.Millisecond), bound)
	}
	minP50, maxP50 := points[0].lat.P50, points[0].lat.P50
	for _, p := range points {
		if p.lat.P50 < minP50 {
			minP50 = p.lat.P50
		}
		if p.lat.P50 > maxP50 {
			maxP50 = p.lat.P50
		}
	}
	res.check("median step time flat in D", maxP50 <= 4*minP50,
		"p50 step time spread %v..%v",
		minP50.Round(time.Millisecond), maxP50.Round(time.Millisecond))
	return res, nil
}
