package experiments

import (
	"fmt"
	"math/rand"

	"vinestalk/internal/cgcast"
	"vinestalk/internal/evader"
	"vinestalk/internal/geo"
	"vinestalk/internal/geocast"
	"vinestalk/internal/hier"
	"vinestalk/internal/lookahead"
	"vinestalk/internal/metrics"
	"vinestalk/internal/sim"
	"vinestalk/internal/tracker"
	"vinestalk/internal/vbcast"
	"vinestalk/internal/vsa"
)

// protoWork sums hop-work over protocol message kinds in a snapshot
// (transport-level hop accounting excluded).
func protoWork(snap metrics.Snapshot) int64 {
	var n int64
	for k, v := range snap.HopWork {
		if len(k) > 6 && k[:6] == "proto/" {
			n += v
		}
	}
	return n
}

// T2Landmark regenerates the paper's generality claim: VINESTALK's cluster
// definitions are not grid-specific — any hierarchy meeting the §II-B
// structural requirements carries the tracking path. The same workload
// runs over the engineered base-2 grid hierarchy and over an irregular
// landmark decomposition of the same tiling; both must be correct
// (Theorem 4.8 checked after every move), with the grid winning on
// constants because its measured geometry is tighter.
func T2Landmark(env Env) (*Result, error) {
	side := 9
	steps := 15
	if env.Quick {
		steps = 10
	}
	res := &Result{Table: Table{
		ID:      "T2",
		Title:   "generalized clusterings: grid vs landmark hierarchy",
		Claim:   "the tracker is correct over any §II-B hierarchy; grid geometry only improves constants (§I, §II-B)",
		Columns: []string{"hierarchy", "MAX", "clusters", "move work/step", "find work", "Thm 4.8 held"},
	}}

	type row struct {
		moveWork float64
		findWork int64
		ok       bool
	}
	measure := func(h *hier.Hierarchy, tiling *geo.GridTiling) (row, error) {
		k := sim.New(51)
		layer := vsa.NewLayer(k, tiling, vsa.WithAlwaysAlive())
		ledger := metrics.NewLedger()
		vb := vbcast.New(k, layer, 10*sim.Time(1e6), 5*sim.Time(1e6), ledger)
		gc := geocast.New(k, layer, h.Graph(), vb, ledger)
		geom := hier.MeasureGeometry(h)
		cg, err := cgcast.New(h, layer, gc, vb, geom, ledger)
		if err != nil {
			return row{}, err
		}
		net, err := tracker.New(cg, geom)
		if err != nil {
			return row{}, err
		}
		if err := net.AddStationaryClients(); err != nil {
			return row{}, err
		}
		layer.StartAllAlive()
		start := geo.RegionID(side*side/2 + side/2)
		ev, err := evader.New(tiling, start, net.Sink())
		if err != nil {
			return row{}, err
		}
		spec := lookahead.Follow(h, ev)
		settle := func() error {
			if _, err := k.RunLimited(5_000_000); err != nil {
				return err
			}
			return nil
		}
		if err := settle(); err != nil {
			return row{}, err
		}
		rng := rand.New(rand.NewSource(7))
		var work int64
		ok := true
		for i := 0; i < steps; i++ {
			before := ledger.Snapshot()
			nbrs := tiling.Neighbors(ev.Region())
			if err := ev.MoveTo(nbrs[rng.Intn(len(nbrs))]); err != nil {
				return row{}, err
			}
			if err := settle(); err != nil {
				return row{}, err
			}
			work += protoWork(ledger.Snapshot().Sub(before))
			want, err := spec.State()
			if err != nil {
				return row{}, err
			}
			if diff := lookahead.Equal(lookahead.Capture(net), want); diff != "" {
				ok = false
			}
		}
		before := ledger.Snapshot()
		id, err := net.Find(geo.RegionID(0))
		if err != nil {
			return row{}, err
		}
		if err := settle(); err != nil {
			return row{}, err
		}
		if !net.FindDone(id) {
			return row{}, fmt.Errorf("find incomplete")
		}
		return row{
			moveWork: float64(work) / float64(steps),
			findWork: protoWork(ledger.Snapshot().Sub(before)),
			ok:       ok,
		}, nil
	}

	// One sweep cell per hierarchy variant; each builds its own tiling,
	// hierarchy, and kernel.
	type variant struct {
		label string
		build func(*geo.GridTiling) (*hier.Hierarchy, error)
	}
	variants := []variant{
		{"grid (base 3)", func(t *geo.GridTiling) (*hier.Hierarchy, error) {
			return hier.NewGrid(t, 3) // 9x9 is a clean base-3 grid
		}},
		{"landmark", func(t *geo.GridTiling) (*hier.Hierarchy, error) {
			return hier.NewLandmark(t, 2)
		}},
	}
	type outcome struct {
		row         row
		maxLevel    int
		numClusters int
	}
	outcomes, err := cells(env, variants, func(v variant) (outcome, error) {
		tiling := geo.MustGridTiling(side, side)
		h, err := v.build(tiling)
		if err != nil {
			return outcome{}, fmt.Errorf("%s hierarchy: %w", v.label, err)
		}
		r, err := measure(h, tiling)
		if err != nil {
			return outcome{}, fmt.Errorf("%s hierarchy: %w", v.label, err)
		}
		return outcome{row: r, maxLevel: h.MaxLevel(), numClusters: h.NumClusters()}, nil
	})
	if err != nil {
		return nil, err
	}
	grid, land := outcomes[0].row, outcomes[1].row
	for i, o := range outcomes {
		res.Table.AddRow(variants[i].label, o.maxLevel, o.numClusters, o.row.moveWork, o.row.findWork, o.row.ok)
	}

	res.check("both hierarchies correct", grid.ok && land.ok,
		"Theorem 4.8 held after every move on both")
	res.check("costs within a small factor", land.moveWork <= 6*grid.moveWork,
		"landmark %.2f vs grid %.2f work/step", land.moveWork, grid.moveWork)
	return res, nil
}
