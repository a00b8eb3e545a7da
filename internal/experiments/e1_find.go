package experiments

import (
	"fmt"
	"time"

	"vinestalk/internal/core"
	"vinestalk/internal/geo"
	"vinestalk/internal/metrics"
	"vinestalk/internal/sim"
)

// E1FindCost regenerates Theorem 5.2's grid corollary: a find issued
// distance d from the object costs O(d) work and O(d(δ+e)) time. The
// evader sits at the grid center; finds are issued from origins at
// doubling distances, and the per-distance averages must grow linearly
// (flat work/d within a constant factor).
func E1FindCost(env Env) (*Result, error) {
	side := 32
	if env.Quick {
		side = 16
	}
	res := &Result{Table: Table{
		ID:    "E1",
		Title: "find cost vs distance d (grid hierarchy)",
		Claim: "work O(d), time O(d(δ+e)) — Theorem 5.2",
		Columns: []string{"d", "finds", "msgs", "work", "latency", "work/d", "latency/d",
			"lat p50", "lat p99", "lat max"},
	}}

	var distances []int
	for d := 1; d <= side/2-1; d *= 2 {
		distances = append(distances, d)
	}

	// One sweep cell per distance: each builds its own settled service (the
	// evader parked at the center) and issues that distance's find batch.
	type point struct {
		d       int
		n       int
		avgMsgs float64
		avgWork float64
		avgLat  time.Duration
		workPer float64
		latPer  float64
		lat     metrics.LatencyStats // per-find latency distribution
		maxWork int64                // worst single find's hop work
		ledger  *metrics.Export
	}
	measured, err := cells(env, distances, func(d int) (point, error) {
		svc, err := core.New(core.Config{
			Width:           side,
			AlwaysAliveVSAs: true,
			Start:           centerRegion(side),
			FormulaGeometry: side >= 32,
		})
		if err != nil {
			return point{}, err
		}
		if err := svc.Settle(); err != nil {
			return point{}, err
		}
		g := svc.Tiling()
		cx, cy := side/2, side/2
		origins := originsAtDistance(g, cx, cy, d)
		var msgs, work, maxWork int64
		var lat sim.Time
		n := 0
		for _, u := range origins {
			m, w, l, err := svc.FindStats(u)
			if err != nil {
				return point{}, fmt.Errorf("find at distance %d from %v: %w", d, u, err)
			}
			msgs += m
			work += w
			if w > maxWork {
				maxWork = w
			}
			lat += l
			n++
		}
		if n == 0 {
			return point{d: d}, nil
		}
		avgWork := float64(work) / float64(n)
		avgLat := time.Duration(int64(lat) / int64(n))
		return point{
			d: d, n: n, avgMsgs: float64(msgs) / float64(n),
			avgWork: avgWork, avgLat: avgLat,
			workPer: avgWork / float64(d), latPer: float64(avgLat) / float64(d),
			// The per-find latency samples land in the service ledger's
			// "find" histogram; the whole distribution, not just the mean,
			// is checked against the Theorem 5.2 bound below.
			lat: svc.Ledger().Latency("find"), maxWork: maxWork,
			ledger: svc.Ledger().Export(),
		}, nil
	})
	if err != nil {
		return nil, err
	}

	var points []point
	for _, p := range measured {
		if p.n == 0 {
			continue
		}
		res.Table.AddRow(p.d, p.n, p.avgMsgs, p.avgWork,
			p.avgLat, p.workPer, time.Duration(int64(p.avgLat)/int64(p.d)),
			p.lat.P50, p.lat.P99, p.lat.Max)
		res.addLedger(fmt.Sprintf("d=%d", p.d), p.ledger)
		points = append(points, p)
	}

	// Shape check: work/d and latency/d stay within a constant factor
	// across the sweep (linear growth), ignoring d=1 where constants
	// dominate.
	minW, maxW := points[1].workPer, points[1].workPer
	minL, maxL := points[1].latPer, points[1].latPer
	for _, p := range points[1:] {
		minW, maxW = minFloat(minW, p.workPer), maxFloat(maxW, p.workPer)
		minL, maxL = minFloat(minL, p.latPer), maxFloat(maxL, p.latPer)
	}
	res.check("work linear in d", maxW <= 8*minW, "work/d spread %.2f..%.2f", minW, maxW)
	res.check("latency linear in d", maxL <= 8*minL, "latency/d spread %v..%v",
		time.Duration(minL).Round(time.Millisecond), time.Duration(maxL).Round(time.Millisecond))
	// Sanity: far finds strictly dearer than near ones.
	res.check("monotone cost", points[len(points)-1].workPer*float64(points[len(points)-1].d) >
		points[0].workPer*float64(points[0].d),
		"far find work exceeds near find work")

	// Distribution-wide Theorem 5.2 check: not just the per-distance means
	// but the WORST sample of every batch must stay linear — max latency/d
	// and max work/d within a constant factor across the sweep (again
	// ignoring d=1 where constants dominate). A single stray find that blew
	// the bound would previously hide inside the average.
	minML, maxML := float64(points[1].lat.Max)/float64(points[1].d), float64(points[1].lat.Max)/float64(points[1].d)
	minMW, maxMW := float64(points[1].maxWork)/float64(points[1].d), float64(points[1].maxWork)/float64(points[1].d)
	for _, p := range points[1:] {
		ml := float64(p.lat.Max) / float64(p.d)
		mw := float64(p.maxWork) / float64(p.d)
		minML, maxML = minFloat(minML, ml), maxFloat(maxML, ml)
		minMW, maxMW = minFloat(minMW, mw), maxFloat(maxMW, mw)
	}
	res.check("worst-sample latency linear in d", maxML <= 8*minML,
		"max-sample latency/d spread %v..%v",
		time.Duration(minML).Round(time.Millisecond), time.Duration(maxML).Round(time.Millisecond))
	res.check("worst-sample work linear in d", maxMW <= 8*minMW,
		"max-sample work/d spread %.2f..%.2f", minMW, maxMW)
	return res, nil
}

// originsAtDistance returns up to 8 regions at exactly Chebyshev distance d
// from (cx, cy).
func originsAtDistance(g *geo.GridTiling, cx, cy, d int) []geo.RegionID {
	candidates := [][2]int{
		{cx + d, cy}, {cx - d, cy}, {cx, cy + d}, {cx, cy - d},
		{cx + d, cy + d}, {cx - d, cy - d}, {cx + d, cy - d}, {cx - d, cy + d},
	}
	var out []geo.RegionID
	for _, c := range candidates {
		if u := g.RegionAt(c[0], c[1]); u != geo.NoRegion {
			out = append(out, u)
		}
	}
	return out
}

func centerRegion(side int) geo.RegionID {
	return geo.RegionID((side/2)*side + side/2)
}

func minFloat(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxFloat(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
