package experiments

import (
	"fmt"
	"math/rand"

	"vinestalk/internal/core"
	"vinestalk/internal/evader"
	"vinestalk/internal/geo"
	"vinestalk/internal/tracker"
)

// E8MultiObject regenerates the §VII multiple-objects extension as a
// measured experiment: tracking k objects over the same processes costs
// k times one object's work (the structures are independent), and
// object-addressed finds always reach their own object even when the
// objects cross paths.
func E8MultiObject(env Env) (*Result, error) {
	side := 12
	steps := 10
	counts := []int{1, 2, 4}
	if env.Quick {
		side = 8
		steps = 6
	}
	res := &Result{Table: Table{
		ID:      "E8",
		Title:   "multiple tracked objects (§VII)",
		Claim:   "per-object structures are independent: total work scales linearly with k; finds stay object-accurate",
		Columns: []string{"objects", "total move work", "work per object", "finds ok"},
	}}

	// One sweep cell per object count, each on its own service.
	type point struct {
		k        int
		work     int64
		findsOK  int
		findsAll int
	}
	points, err := cells(env, counts, func(k int) (point, error) {
		svc, err := core.New(core.Config{
			Width:           side,
			AlwaysAliveVSAs: true,
			Start:           centerRegion(side),
			Seed:            61,
		})
		if err != nil {
			return point{}, err
		}
		evaders := map[tracker.ObjectID]*evader.Evader{0: svc.Evader()}
		for obj := tracker.ObjectID(1); int(obj) < k; obj++ {
			ev, err := svc.AddObject(obj, geo.RegionID(int(obj)*3))
			if err != nil {
				return point{}, err
			}
			evaders[obj] = ev
		}
		if err := svc.Settle(); err != nil {
			return point{}, err
		}

		// Identical per-object walks (same seed per object across k runs),
		// so the k-object run does exactly k times the one-object work.
		before := svc.Ledger().Snapshot()
		for obj := tracker.ObjectID(0); int(obj) < k; obj++ {
			rng := rand.New(rand.NewSource(100 + int64(obj)))
			for i := 0; i < steps; i++ {
				cur := evaders[obj].Region()
				nbrs := svc.Tiling().Neighbors(cur)
				if err := evaders[obj].MoveTo(nbrs[rng.Intn(len(nbrs))]); err != nil {
					return point{}, err
				}
				if err := svc.Settle(); err != nil {
					return point{}, err
				}
			}
		}
		work := protoWork(svc.Ledger().Snapshot().Sub(before))

		// Every object findable, found at its own region.
		findsOK, findsAll := 0, 0
		for obj := tracker.ObjectID(0); int(obj) < k; obj++ {
			findsAll++
			id, err := svc.FindObject(geo.RegionID(side*side-1), obj)
			if err != nil {
				return point{}, err
			}
			if err := svc.Settle(); err != nil {
				return point{}, err
			}
			if !svc.FindDone(id) {
				continue
			}
			for _, r := range svc.Founds() {
				if r.ID == id && r.FoundAt == evaders[obj].Region() {
					findsOK++
				}
			}
		}
		return point{k: k, work: work, findsOK: findsOK, findsAll: findsAll}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, p := range points {
		res.Table.AddRow(p.k, p.work, float64(p.work)/float64(p.k), fmt.Sprintf("%d/%d", p.findsOK, p.findsAll))
	}

	for _, p := range points {
		res.check(fmt.Sprintf("k=%d finds object-accurate", p.k), p.findsOK == p.findsAll,
			"%d/%d", p.findsOK, p.findsAll)
	}
	// Linearity: per-object work roughly flat across k (walks differ per
	// object, so allow slack).
	perObj := func(p point) float64 { return float64(p.work) / float64(p.k) }
	lo, hi := perObj(points[0]), perObj(points[0])
	for _, p := range points[1:] {
		lo, hi = minFloat(lo, perObj(p)), maxFloat(hi, perObj(p))
	}
	res.check("work scales linearly with k", hi <= 1.8*lo,
		"per-object work spread %.1f..%.1f", lo, hi)
	return res, nil
}
