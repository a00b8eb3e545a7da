package experiments

import (
	"time"

	"vinestalk/internal/core"
	"vinestalk/internal/geo"
	"vinestalk/internal/sim"
	"vinestalk/internal/vsa"
)

// E7Failures regenerates the §II-C failure semantics and the §VII
// heartbeat extension: a mid-path VSA fails (its region empties) and
// restarts with fresh state. Without heartbeats the tracking structure
// stays broken; with them it heals and finds succeed again.
func E7Failures(env Env) (*Result, error) {
	side := 8
	res := &Result{Table: Table{
		ID:      "E7",
		Title:   "VSA failure, restart, and heartbeat recovery",
		Claim:   "heartbeat refresh heals the path after VSA restarts; without it the structure stays broken (§VII)",
		Columns: []string{"variant", "phase", "find completed"},
	}}

	unit := 15 * time.Millisecond

	// One sweep cell per heartbeat variant; each fails and restarts a VSA
	// on its own service.
	type cell struct {
		name          string
		before, after bool
	}
	measured, err := cells(env, []sim.Time{0, 8 * unit}, func(hb sim.Time) (cell, error) {
		name := "no-heartbeat"
		if hb > 0 {
			name = "heartbeat"
		}
		svc, err := core.New(core.Config{
			Width:     side,
			Start:     geo.RegionID(0),
			TRestart:  unit,
			Heartbeat: hb,
		})
		if err != nil {
			return cell{}, err
		}
		svc.RunFor(100 * unit) // build the initial path

		probe := func(wait sim.Time) (bool, error) {
			id, err := svc.Find(svc.Tiling().RegionAt(side-1, side-1))
			if err != nil {
				return false, err
			}
			svc.RunFor(wait)
			return svc.FindDone(id), nil
		}

		before, err := probe(200 * unit)
		if err != nil {
			return cell{}, err
		}

		// Fail the VSA hosting the evader's level-1 cluster, then bring a
		// client back so it restarts with fresh state.
		lvl1 := svc.Hierarchy().Cluster(svc.Evader().Region(), 1)
		head := svc.Hierarchy().Head(lvl1)
		refuge := svc.Tiling().Neighbors(head)[0]
		for _, id := range svc.Layer().ClientsIn(head) {
			if err := svc.Layer().MoveClient(id, refuge); err != nil {
				return cell{}, err
			}
		}
		if err := svc.Layer().MoveClient(vsa.ClientID(int(head)), head); err != nil {
			return cell{}, err
		}
		svc.RunFor(600 * unit) // restart + (with heartbeats) heal

		after, err := probe(600 * unit)
		if err != nil {
			return cell{}, err
		}
		return cell{name: name, before: before, after: after}, nil
	})
	if err != nil {
		return nil, err
	}

	for _, c := range measured {
		res.Table.AddRow(c.name, "before failure", c.before)
		res.Table.AddRow(c.name, "after restart", c.after)
		res.check(c.name+": find works before failure", c.before, "baseline probe")
		if c.name == "heartbeat" {
			res.check("heartbeat: find recovers", c.after, "post-restart probe")
		} else {
			res.check("no-heartbeat: stays broken", !c.after, "post-restart probe")
		}
	}
	return res, nil
}
