package experiments

import (
	"vinestalk/internal/core"
	"vinestalk/internal/geo"
	"vinestalk/internal/sim"
	"vinestalk/internal/vsa"
)

// A4Quorum regenerates the §VII quorum extension claim: replicating each
// cluster head ("multiple heads per cluster") costs "only an additional
// constant factor overhead, but would allow for the failure of limited
// sets of VSAs". The experiment measures the work overhead on a standard
// workload and then kills a primary head VSA — finds must keep completing
// through the backup replica, where the unreplicated tracker breaks.
func A4Quorum(env Env) (*Result, error) {
	side := 8
	moves := 6
	if !env.Quick {
		side = 16
		moves = 10
	}
	res := &Result{Table: Table{
		ID:      "A4",
		Title:   "quorum extension: replicated cluster heads",
		Claim:   "constant-factor overhead; tolerates single-head VSA failures (§VII)",
		Columns: []string{"variant", "total work", "overhead", "find after head failure"},
	}}

	type outcome struct {
		work     int64
		survives bool
	}
	measure := func(replicated bool) (outcome, error) {
		svc, err := core.New(core.Config{
			Width:           side,
			Start:           geo.RegionID(side + 1), // (1,1)
			TRestart:        15 * sim.Time(1e6),     // 15ms; never reoccupied anyway
			ReplicatedHeads: replicated,
			Seed:            41,
		})
		if err != nil {
			return outcome{}, err
		}
		if err := svc.Settle(); err != nil {
			return outcome{}, err
		}
		g := svc.Tiling()
		for i := 1; i <= moves; i++ {
			if err := svc.MoveEvader(g.RegionAt(1+i%2, 1+(i+1)%2)); err != nil {
				return outcome{}, err
			}
			if err := svc.Settle(); err != nil {
				return outcome{}, err
			}
		}
		if _, _, _, err := svc.FindStats(g.RegionAt(side-1, side-1)); err != nil {
			return outcome{}, err
		}
		work := svc.Ledger().TotalWork()

		// Kill the primary head VSA of the level-1 process *on the
		// tracking path* (lateral links mean that need not be the
		// evader's own level-1 cluster).
		lvl1 := svc.Hierarchy().Root()
		for cur := lvl1; ; {
			if svc.Hierarchy().Level(cur) == 1 {
				lvl1 = cur
				break
			}
			c, _, _, _ := svc.Network().Process(cur).Pointers()
			if !c.Valid() || c == cur {
				break
			}
			cur = c
		}
		primary := svc.Hierarchy().Head(lvl1)
		alt := svc.Hierarchy().AltHead(lvl1)
		refuge := geo.NoRegion
		for _, nb := range g.Neighbors(primary) {
			if nb != alt {
				refuge = nb
				break
			}
		}
		for _, id := range svc.Layer().ClientsIn(primary) {
			if err := svc.Layer().MoveClient(vsa.ClientID(id), refuge); err != nil {
				return outcome{}, err
			}
		}
		id, err := svc.Find(g.RegionAt(side-1, side-1))
		if err != nil {
			return outcome{}, err
		}
		svc.RunFor(400 * 15 * sim.Time(1e6))
		return outcome{work: work, survives: svc.FindDone(id)}, nil
	}

	// One sweep cell per variant, each on its own service.
	outcomes, err := cells(env, []bool{false, true}, measure)
	if err != nil {
		return nil, err
	}
	plain, repl := outcomes[0], outcomes[1]
	res.Table.AddRow("single head", plain.work, 1.0, plain.survives)
	res.Table.AddRow("replicated heads", repl.work, float64(repl.work)/float64(plain.work), repl.survives)

	res.check("constant-factor overhead", repl.work > plain.work && repl.work <= 3*plain.work,
		"replicated %d vs single %d (%.2fx)", repl.work, plain.work, float64(repl.work)/float64(plain.work))
	res.check("survives primary-head failure", repl.survives && !plain.survives,
		"replicated find ok=%v, single-head find ok=%v", repl.survives, plain.survives)
	return res, nil
}
