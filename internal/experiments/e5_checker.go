package experiments

import (
	"fmt"
	"math/rand"

	"vinestalk/internal/core"
	"vinestalk/internal/lookahead"
)

// E5Checker regenerates the correctness results of §IV-C as runtime
// checks: along random walks on several configurations, after every move
// the settled implementation state must be consistent and equal
// atomicMoveSeq (Theorem 4.8 with lookAhead = identity at quiescence), and
// the Lemma 4.1/4.3 invariants must hold at sampled mid-flight event
// boundaries.
func E5Checker(env Env) (*Result, error) {
	configs := []struct {
		side, base int
		steps      int
	}{
		{8, 2, 25},
		{16, 2, 25},
		{9, 3, 25},
	}
	if env.Quick {
		configs = configs[:2]
		for i := range configs {
			configs[i].steps = 12
		}
	}
	res := &Result{Table: Table{
		ID:      "E5",
		Title:   "runtime verification of Theorem 4.8 and Lemmas 4.1/4.3",
		Claim:   "lookAhead(s) = atomicMoveSeq(moves); ≤1 grow and ≤1 shrink live; lateral grows only reach parent-connected processes",
		Columns: []string{"grid", "base", "moves", "quiescent checks", "mid-flight checks", "violations"},
	}}

	// One sweep cell per configuration, each on its own service and RNG.
	type cell struct {
		quiescent, midflight, violations int
	}
	type config = struct {
		side, base int
		steps      int
	}
	measured, err := cells(env, configs, func(cfg config) (cell, error) {
		svc, err := core.New(core.Config{
			Width:           cfg.side,
			Base:            cfg.base,
			AlwaysAliveVSAs: true,
			Start:           centerRegion(cfg.side),
			Seed:            13,
		})
		if err != nil {
			return cell{}, err
		}
		if err := svc.Settle(); err != nil {
			return cell{}, err
		}
		spec := lookahead.Follow(svc.Hierarchy(), svc.Evader())
		rng := rand.New(rand.NewSource(17))
		var c cell
		for step := 0; step < cfg.steps; step++ {
			nbrs := svc.Tiling().Neighbors(svc.Evader().Region())
			if err := svc.MoveEvader(nbrs[rng.Intn(len(nbrs))]); err != nil {
				return cell{}, err
			}
			// Mid-flight: step the kernel event by event, checking the
			// invariants and the lookAhead equality at each boundary.
			want, err := spec.State()
			if err != nil {
				return cell{}, err
			}
			for {
				snap := lookahead.Capture(svc.Network())
				if err := snap.CheckInvariants(); err != nil {
					c.violations++
				}
				if diff := lookahead.Equal(lookahead.LookAhead(snap), want); diff != "" {
					c.violations++
				}
				c.midflight++
				if !svc.Kernel().Step() {
					break
				}
			}
			if err := svc.CheckConsistent(); err != nil {
				c.violations++
			}
			if err := svc.CheckTheorem48(); err != nil {
				c.violations++
			}
			c.quiescent++
		}
		return c, nil
	})
	if err != nil {
		return nil, err
	}

	totalViolations := 0
	for i, c := range measured {
		cfg := configs[i]
		totalViolations += c.violations
		res.Table.AddRow(fmt.Sprintf("%dx%d", cfg.side, cfg.side), cfg.base,
			cfg.steps, c.quiescent*2, c.midflight*2, c.violations)
	}
	res.check("no violations", totalViolations == 0, "%d violations across all configurations", totalViolations)
	return res, nil
}
