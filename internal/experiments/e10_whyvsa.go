package experiments

import (
	"math/rand"

	"vinestalk/internal/core"
	"vinestalk/internal/geo"
	"vinestalk/internal/hier"
	"vinestalk/internal/tracker"
	"vinestalk/internal/vsa"
)

// E10WhyVSA regenerates the paper's §I architectural motivation: STALK
// keeps the tracking path "directly by the client nodes themselves", so in
// a *mobile* network every relocation of a state-bearing client forces a
// state handoff (or a "difficult-to-provide dynamic global clustering");
// VINESTALK moves the path into region-pinned virtual automata, making
// tracking work independent of client churn.
//
// The experiment runs the same tracking workload under increasing client
// churn and reports (a) VINESTALK's measured tracking work — flat, the
// VSA layer insulates the structure — and (b) the number of times a
// churning client left a region whose VSA holds tracking state, i.e. the
// handoffs a client-maintained structure would at minimum have paid
// (each at least one broadcast). The first column is measured; the second
// is the modeled lower bound on the alternative's extra cost, clearly
// labeled as such.
func E10WhyVSA(env Env) (*Result, error) {
	side := 8
	moves := 12
	if !env.Quick {
		side = 16
		moves = 20
	}
	churnRates := []int{0, 2, 8} // mobile-client hops per evader move
	res := &Result{Table: Table{
		ID:      "E10",
		Title:   "value of the virtual-node layer under client mobility (§I)",
		Claim:   "VSA-maintained structure: tracking work independent of client churn; client-maintained structure pays ≥1 handoff per state-bearing relocation",
		Columns: []string{"churn (client hops/move)", "move work/step", "find work", "state-bearing handoffs (modeled)"},
	}}

	// One sweep cell per churn rate, each with its own service and client
	// population.
	type point struct {
		churn    int
		moveWork float64
		findWork int64
		handoffs int
	}
	points, err := cells(env, churnRates, func(churn int) (point, error) {
		svc, err := core.New(core.Config{
			Width:           side,
			AlwaysAliveVSAs: true, // coverage maintained; churn only relocates extras
			Start:           centerRegion(side),
			Seed:            83,
		})
		if err != nil {
			return point{}, err
		}
		if err := svc.Settle(); err != nil {
			return point{}, err
		}
		// A population of mobile clients on top of the stationary one.
		// Churn and the evader walk draw from independent streams so the
		// walk is identical across churn rates.
		rng := rand.New(rand.NewSource(91))
		walkRng := rand.New(rand.NewSource(92))
		mobiles := make([]vsa.ClientID, 0, 16)
		for i := 0; i < 16; i++ {
			id := vsa.ClientID(1000 + i)
			if _, err := svc.Network().AddClient(id, geo.RegionID(rng.Intn(side*side))); err != nil {
				return point{}, err
			}
			mobiles = append(mobiles, id)
		}

		var moveWork int64
		handoffs := 0
		for step := 0; step < moves; step++ {
			// Churn: mobile clients hop; count relocations out of regions
			// whose VSA currently holds tracking state (the handoff a
			// client-maintained structure would pay).
			bearing := stateBearingRegions(svc)
			for c := 0; c < churn; c++ {
				id := mobiles[rng.Intn(len(mobiles))]
				from := svc.Layer().ClientRegion(id)
				nbrs := svc.Tiling().Neighbors(from)
				if err := svc.Layer().MoveClient(id, nbrs[rng.Intn(len(nbrs))]); err != nil {
					return point{}, err
				}
				if bearing[from] {
					handoffs++
				}
			}
			nbrs := svc.Tiling().Neighbors(svc.Evader().Region())
			_, w, _, err := svc.MoveStats(nbrs[walkRng.Intn(len(nbrs))])
			if err != nil {
				return point{}, err
			}
			moveWork += w
		}
		_, findWork, _, err := svc.FindStats(svc.Tiling().RegionAt(0, 0))
		if err != nil {
			return point{}, err
		}
		return point{
			churn:    churn,
			moveWork: float64(moveWork) / float64(moves),
			findWork: findWork,
			handoffs: handoffs,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, p := range points {
		res.Table.AddRow(p.churn, p.moveWork, p.findWork, p.handoffs)
	}

	lo, hi := points[0].moveWork, points[0].moveWork
	for _, p := range points[1:] {
		lo, hi = minFloat(lo, p.moveWork), maxFloat(hi, p.moveWork)
	}
	res.check("VSA tracking work churn-independent", hi <= 1.01*lo,
		"move work/step spread %.2f..%.2f across churn rates", lo, hi)
	res.check("client-maintained alternative pays for churn",
		points[0].handoffs == 0 && points[len(points)-1].handoffs > points[1].handoffs,
		"handoffs: %d, %d, %d as churn rises", points[0].handoffs, points[1].handoffs, points[2].handoffs)
	res.Table.Notes = append(res.Table.Notes,
		"handoff column is a modeled lower bound (1 broadcast per state-bearing relocation) on the client-maintained alternative, not a full STALK implementation")
	return res, nil
}

// stateBearingRegions returns the head regions of clusters whose tracker
// process currently holds any non-⊥ pointer — the regions where a
// client-maintained structure would pin state to physical nodes.
func stateBearingRegions(svc *core.Service) map[geo.RegionID]bool {
	h := svc.Hierarchy()
	out := make(map[geo.RegionID]bool)
	for c := 0; c < h.NumClusters(); c++ {
		id := hier.ClusterID(c)
		pc, pp, up, down := svc.Network().Process(id).PointersFor(tracker.DefaultObject)
		if pc != hier.NoCluster || pp != hier.NoCluster || up != hier.NoCluster || down != hier.NoCluster {
			out[h.Head(id)] = true
		}
	}
	return out
}
