package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"vinestalk/internal/core"
	"vinestalk/internal/emul"
	"vinestalk/internal/evader"
	"vinestalk/internal/geo"
	"vinestalk/internal/sim"
	"vinestalk/internal/tracker"
)

// E12FullStack hosts the real Tracker on the replicated mobile-node
// emulator (§II-C + internal/emul) and compares it against the oracle host
// on the identical input schedule. Each trial drives twin services — one
// direct (oracle) execution, one where every region's machine is a
// leader-sequenced replica group fed through the emulator — with the same
// fixed absolute-time move/find workload, while the emulated twin also
// absorbs chaos-seeded leader churn (replacement joins, leader crashes).
// The claim under test is the paper's layering argument: the emulated
// system produces exactly the oracle's found outputs, each within the
// emulation lag e of the oracle's output time, with zero consistency or
// Theorem 4.8 violations at the quiescent end.
//
// The workload is scheduled at absolute virtual times (RunUntil paces each
// phase) rather than settle-to-settle. That is deliberate: even in
// lockstep (δ_emul = 0) the broadcast→sequence→execute chain advances a
// send by two same-instant event rounds, which can legally reorder two
// effects scheduled at the same virtual instant — both serializations are
// correct and converge to the same state, but settle times may differ by a
// timer period. Against a fixed wall-clock schedule the two runs receive
// every input at the same instant, which is the execution pair the
// emulation-lag theorem actually relates (see EXPERIMENTS.md, E12).
func E12FullStack(env Env) (*Result, error) {
	const side = 4
	phase := 300 * time.Millisecond
	trials, moves := 6, 10
	if env.Quick {
		trials, moves = 3, 6
	}

	res := &Result{Table: Table{
		ID:    "E12",
		Title: "full stack on the replicated VSA emulation",
		Claim: "the Tracker hosted on emulated VSAs reproduces the oracle's found outputs within lag e under leader churn (§II-C; Thms 4.8, 5.1)",
		Columns: []string{"trial", "finds", "outputs identical", "max lag",
			"lag bound e", "leader handoffs", "spec checks"},
	}}

	type output struct {
		r  tracker.FindResult
		at sim.Time
	}
	type runOut struct {
		founds   []output
		handoffs int
		checkErr error
	}

	// One twin: identical config and input schedule either way; only the
	// emulated twin gets the Emulation substrate and the churn plan.
	runTwin := func(trial int, walk, finds []geo.RegionID, emulated bool) (runOut, error) {
		var out runOut
		var svc *core.Service
		cfg := core.Config{
			Width:           side,
			Seed:            int64(trial)*211 + 5,
			Start:           0,
			AlwaysAliveVSAs: true,
			OnFound: func(r tracker.FindResult) {
				out.founds = append(out.founds, output{r: r, at: svc.Kernel().Now()})
			},
		}
		if emulated {
			cfg.Emulation = &core.EmulationConfig{
				Delta:          0, // lockstep: replication machinery at oracle timing
				TRestart:       50 * time.Millisecond,
				NodesPerRegion: 3,
			}
		}
		svc, err := core.New(cfg)
		if err != nil {
			return out, err
		}

		// Churn sites: the region the evader just entered and the root
		// cluster's head (every find passes through it). Chaos-seeded so the
		// fault pattern varies per trial without touching the input schedule.
		churnRng := rand.New(rand.NewSource(int64(trial)*31 + 7 + env.ChaosSeed))
		rootHead := svc.Hierarchy().Head(svc.Hierarchy().Root())
		nextNode := emul.NodeID(svc.Tiling().NumRegions() * 3) // past the initial per-region population
		churn := func(u geo.RegionID) {
			em := svc.Emulator()
			old := em.Leader(u)
			if old == emul.NoNode {
				return
			}
			// Keep the population steady: a fresh joiner replaces the leader
			// we are about to crash, so the region never empties.
			if err := em.AddNode(nextNode, u); err == nil {
				nextNode++
			}
			em.FailNode(old)
			if now := em.Leader(u); now != old && now != emul.NoNode {
				out.handoffs++
			}
		}

		k := svc.Kernel()
		for i, to := range walk {
			k.RunUntil(sim.Time(i+1) * phase)
			if err := svc.MoveEvader(to); err != nil {
				return out, err
			}
			k.RunUntil(sim.Time(i+1)*phase + phase/2)
			if _, err := svc.Find(finds[i]); err != nil {
				return out, err
			}
			if emulated && i%2 == 1 {
				// Crash leaders while the find's trace phase is in flight.
				k.RunUntil(sim.Time(i+1)*phase + phase*3/4)
				churn(rootHead)
				if churnRng.Intn(2) == 0 {
					churn(to)
				}
			}
		}
		if err := svc.Settle(); err != nil {
			return out, err
		}
		if err := svc.CheckConsistent(); err != nil {
			out.checkErr = err
		} else if err := svc.CheckTheorem48(); err != nil {
			out.checkErr = err
		}
		return out, nil
	}

	type cell struct {
		identical bool
		finds     int
		maxLag    sim.Time
		bound     sim.Time
		handoffs  int
		checksOK  bool
		detail    string
	}
	trialIDs := make([]int, trials)
	for i := range trialIDs {
		trialIDs[i] = i
	}
	measured, err := cells(env, trialIDs, func(trial int) (cell, error) {
		// The schedule is drawn once per trial and replayed on both twins.
		rng := rand.New(rand.NewSource(int64(trial)*97 + 13))
		tiling := geo.MustGridTiling(side, side)
		model := evader.RandomWalk{Tiling: tiling}
		walk := make([]geo.RegionID, moves)
		finds := make([]geo.RegionID, moves)
		cur := geo.RegionID(0)
		for i := range walk {
			cur = model.Next(rng, cur)
			walk[i] = cur
			finds[i] = geo.RegionID(rng.Intn(tiling.NumRegions()))
		}

		oracle, err := runTwin(trial, walk, finds, false)
		if err != nil {
			return cell{}, fmt.Errorf("trial %d oracle: %w", trial, err)
		}
		emulRun, err := runTwin(trial, walk, finds, true)
		if err != nil {
			return cell{}, fmt.Errorf("trial %d emulated: %w", trial, err)
		}

		c := cell{
			finds:    len(oracle.founds),
			bound:    5 * time.Millisecond, // the e the oracle's schedule charges (core default)
			handoffs: emulRun.handoffs,
			checksOK: oracle.checkErr == nil && emulRun.checkErr == nil,
		}
		if !c.checksOK {
			c.detail = fmt.Sprintf("oracle: %v, emulated: %v", oracle.checkErr, emulRun.checkErr)
		}
		c.identical = len(emulRun.founds) == len(oracle.founds)
		if c.identical {
			for i := range oracle.founds {
				if emulRun.founds[i].r != oracle.founds[i].r {
					c.identical = false
					c.detail = fmt.Sprintf("found %d: emulated %+v, oracle %+v",
						i, emulRun.founds[i].r, oracle.founds[i].r)
					break
				}
				lag := emulRun.founds[i].at - oracle.founds[i].at
				if lag < 0 {
					lag = -lag
				}
				if lag > c.maxLag {
					c.maxLag = lag
				}
			}
		} else {
			c.detail = fmt.Sprintf("emulated %d founds, oracle %d",
				len(emulRun.founds), len(oracle.founds))
		}
		return c, nil
	})
	if err != nil {
		return nil, err
	}

	allIdentical, allWithinLag, allChecks := true, true, true
	totalHandoffs := 0
	for trial, c := range measured {
		allIdentical = allIdentical && c.identical && c.finds > 0
		allWithinLag = allWithinLag && c.maxLag <= c.bound
		allChecks = allChecks && c.checksOK
		totalHandoffs += c.handoffs
		res.Table.AddRow(trial, c.finds, c.identical, c.maxLag, c.bound, c.handoffs, c.checksOK)
		if c.detail != "" {
			res.Table.Notes = append(res.Table.Notes,
				fmt.Sprintf("trial %d: %s", trial, c.detail))
		}
	}
	res.check("emulated founds identical to oracle", allIdentical,
		"every trial's found sequence matches the direct execution")
	res.check("per-output lag within e", allWithinLag,
		"lockstep emulation commits at the oracle's instants")
	res.check("leader handoffs exercised", totalHandoffs > 0,
		"%d handoffs across %d trials", totalHandoffs, trials)
	res.check("consistency and Theorem 4.8 clean on both hosts", allChecks,
		"lookAhead spec holds at the quiescent end of every run")
	res.Table.Notes = append(res.Table.Notes,
		fmt.Sprintf("fixed absolute-time schedule, phase %v; δ_emul = 0 (lockstep) — "+
			"lagged regimes are covered by internal/emul and tracker unit tests; chaos seed offset %d", phase, env.ChaosSeed))
	return res, nil
}
