package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"vinestalk/internal/chaos"
	"vinestalk/internal/core"
	"vinestalk/internal/evader"
	"vinestalk/internal/geo"
	"vinestalk/internal/metrics"
	"vinestalk/internal/sim"
	"vinestalk/internal/tracker"
)

// E11Adversarial sweeps seeds × fault intensities through deterministic
// chaos plans (internal/chaos) and replays every execution against the
// atomic lookAhead specification: sampled message delays in [0,δ]/[0,e],
// client churn with GPS dither, and scripted VSA crash windows with
// permitted message loss. The theorems quantify over all such executions,
// so the checker must report zero violations at every intensity; the table
// also reports the work and find-latency inflation each intensity causes
// versus the fault-free twin run driven by the identical evader walk.
func E11Adversarial(env Env) (*Result, error) {
	const side = 8
	unit := 15 * time.Millisecond
	seeds, moves := 8, 12
	if env.Quick {
		seeds, moves = 2, 6
	}
	// Faults cease at the horizon; the walk is paced to end there in the
	// churn and crash regimes (one move per 10 time units).
	horizon := sim.Time(moves) * 10 * unit

	type intensity struct {
		name  string
		churn bool // churn regime: RunFor pacing, settle after the horizon
		crash bool // crash regime: heartbeats, stabilization probes only
		plan  func(seed int64) *chaos.Config
	}
	intensities := []intensity{
		{name: "delay-jitter", plan: func(s int64) *chaos.Config {
			return &chaos.Config{Seed: s, DelayJitter: true}
		}},
		{name: "jitter+churn", churn: true, plan: func(s int64) *chaos.Config {
			return &chaos.Config{Seed: s, DelayJitter: true,
				ChurnClients: 4, ChurnPeriod: 8 * unit, Horizon: horizon}
		}},
		{name: "crash+drop", crash: true, plan: func(s int64) *chaos.Config {
			return &chaos.Config{Seed: s, DelayJitter: true,
				CrashWindows: 2, CrashLen: 20 * unit,
				ChurnClients: 2, ChurnPeriod: 10 * unit,
				DropProb: 0.15, Horizon: horizon}
		}},
	}

	type job struct {
		in   intensity
		seed int64
	}
	var jobs []job
	for _, in := range intensities {
		for s := 1; s <= seeds; s++ {
			jobs = append(jobs, job{in: in, seed: int64(s)})
		}
	}

	type runOut struct {
		violations, checks, finds, found int
		work                             int64
		latSum                           sim.Time
		sent, delivered, dropped         int64 // point-to-point transport kinds
		causes                           map[metrics.DropCause]int64
		ledger                           *metrics.Export
	}

	// Conservation is claimed for the point-to-point transports: every send
	// resolves to exactly one delivery or one named drop once the event
	// queue drains. VSA-to-clients fan-out ("transport/vsa-client") counts
	// per-attempt and is excluded.
	ppKinds := []string{"transport/client", "transport/hop", "transport/geocast"}

	// run drives one service (perturbed when cc != nil, the fault-free twin
	// otherwise) through the identical walk and find schedule.
	run := func(j job, cc *chaos.Config) (runOut, error) {
		var out runOut
		var ck *chaos.Checker
		var svc *core.Service
		// The find doFind waits on, and the virtual time of its found
		// output (-1 until it occurs).
		var awaited tracker.FindID
		awaitedAt := sim.Time(-1)
		cfg := core.Config{
			Width: side,
			Start: geo.RegionID(9),
			Seed:  j.seed*1009 + 17,
			OnFound: func(r tracker.FindResult) {
				if r.ID == awaited {
					awaitedAt = svc.Kernel().Now()
				}
				if ck != nil {
					ck.OnFound(r)
				}
			},
		}
		if j.in.crash {
			cfg.TRestart = 2 * unit
			cfg.Heartbeat = 8 * unit
		} else {
			cfg.AlwaysAliveVSAs = true
		}
		if cc != nil {
			cfg.Chaos = cc
		}
		svc, err := core.New(cfg)
		if err != nil {
			return out, err
		}
		settleStyle := !j.in.churn && !j.in.crash
		if settleStyle {
			if err := svc.Settle(); err != nil {
				return out, err
			}
		} else {
			svc.RunFor(10 * unit)
		}
		ck = chaos.NewChecker(svc.Kernel(), svc.Network(), svc.Evader())
		before := svc.Ledger().Snapshot()
		corner := svc.Tiling().RegionAt(side-1, side-1)

		doFind := func(wait sim.Time) error {
			t0 := svc.Kernel().Now()
			id, err := svc.Find(corner)
			if err != nil {
				return err
			}
			awaited, awaitedAt = id, -1
			out.finds++
			if settleStyle {
				if err := svc.Settle(); err != nil {
					return err
				}
			} else {
				svc.RunFor(wait)
			}
			if svc.FindDone(id) {
				out.found++
				out.latSum += awaitedAt - t0
			}
			return nil
		}

		// The walk is drawn from a chaos stream shared by the perturbed run
		// and its fault-free twin, so both see the same move sequence.
		walkRng := chaos.NewStreams(j.seed).Stream("walk/" + j.in.name)
		model := evader.RandomWalk{Tiling: svc.Tiling()}
		for i := 0; i < moves; i++ {
			next := model.Next(walkRng, svc.Evader().Region())
			if err := svc.MoveEvader(next); err != nil {
				return out, err
			}
			if settleStyle {
				if err := svc.Settle(); err != nil {
					return out, err
				}
				ck.CheckQuiescent()
				out.checks++
				if i%4 == 3 {
					if err := doFind(0); err != nil {
						return out, err
					}
				}
			} else {
				svc.RunFor(10 * unit)
				if !j.in.crash && svc.Network().MoveQuiescent() {
					ck.CheckQuiescent()
					out.checks++
				}
			}
		}
		if !settleStyle {
			// Faults cease at the horizon; allow the stabilization bound,
			// then probe: finds must complete and answer per the spec.
			svc.RunFor(600 * unit)
			if j.in.churn && !j.in.crash {
				if err := svc.Settle(); err != nil {
					return out, err
				}
				ck.CheckQuiescent()
				out.checks++
			}
			for i := 0; i < 2; i++ {
				if err := doFind(400 * unit); err != nil {
					return out, err
				}
			}
		}
		out.violations = ck.Count()
		final := svc.Ledger().Snapshot()
		out.work = protoWork(final.Sub(before))
		// Whole-run transport accounting (not the diff: a message in flight
		// at the before-snapshot would skew sent vs delivered).
		out.causes = make(map[metrics.DropCause]int64)
		for _, kind := range ppKinds {
			out.sent += final.MsgCount[kind]
			out.delivered += final.Delivered[kind]
			for c, v := range final.Drops[kind] {
				out.causes[c] += v
				out.dropped += v
			}
		}
		out.ledger = svc.Ledger().Export()
		return out, nil
	}

	type cell struct {
		perturbed, baseline runOut
	}
	measured, err := cells(env, jobs, func(j job) (cell, error) {
		cc := j.in.plan(j.seed + env.ChaosSeed)
		p, err := run(j, cc)
		if err != nil {
			return cell{}, fmt.Errorf("%s seed %d: %w", j.in.name, j.seed, err)
		}
		b, err := run(j, nil)
		if err != nil {
			return cell{}, fmt.Errorf("%s seed %d baseline: %w", j.in.name, j.seed, err)
		}
		return cell{perturbed: p, baseline: b}, nil
	})
	if err != nil {
		return nil, err
	}

	res := &Result{Table: Table{
		ID:    "E11",
		Title: "adversarial schedules: seeds × fault intensities",
		Claim: "sampled delays, churn, and crash windows are executions the theorems quantify over: zero lookAhead-spec violations (Thms 4.8, 5.1)",
		Columns: []string{"intensity", "seeds", "spec checks", "finds completed",
			"violations", "work inflation", "latency inflation", "dropped"},
	}}
	totalViolations, totalChecks := 0, 0
	for i, in := range intensities {
		var agg cell
		causes := make(map[metrics.DropCause]int64)
		var workRatio, latRatio float64
		ratios := 0
		for s := 0; s < seeds; s++ {
			c := measured[i*seeds+s]
			agg.perturbed.violations += c.perturbed.violations
			agg.perturbed.checks += c.perturbed.checks
			agg.perturbed.finds += c.perturbed.finds
			agg.perturbed.found += c.perturbed.found
			agg.perturbed.sent += c.perturbed.sent
			agg.perturbed.delivered += c.perturbed.delivered
			agg.perturbed.dropped += c.perturbed.dropped
			for cause, v := range c.perturbed.causes {
				causes[cause] += v
			}
			res.addLedger(fmt.Sprintf("%s/seed%d", in.name, s+1), c.perturbed.ledger)
			if c.baseline.work > 0 && c.baseline.latSum > 0 {
				workRatio += float64(c.perturbed.work) / float64(c.baseline.work)
				latRatio += float64(c.perturbed.latSum) / float64(c.baseline.latSum)
				ratios++
			}
		}
		if ratios > 0 {
			workRatio /= float64(ratios)
			latRatio /= float64(ratios)
		}
		totalViolations += agg.perturbed.violations
		totalChecks += agg.perturbed.checks
		res.Table.AddRow(in.name, seeds, agg.perturbed.checks,
			fmt.Sprintf("%d/%d", agg.perturbed.found, agg.perturbed.finds),
			agg.perturbed.violations, workRatio, latRatio, agg.perturbed.dropped)
		res.check(in.name+": all finds complete", agg.perturbed.found == agg.perturbed.finds,
			"%d/%d", agg.perturbed.found, agg.perturbed.finds)
		if !in.crash {
			res.check(in.name+": spec checked", agg.perturbed.checks > 0,
				"%d quiescent checks", agg.perturbed.checks)
		}
		lost := agg.perturbed.sent - agg.perturbed.delivered
		if !in.crash {
			// These regimes end fully drained, so transport accounting must
			// conserve exactly: every lost message carries a named cause.
			res.check(in.name+": 100% of losses attributed", lost == agg.perturbed.dropped,
				"sent-delivered = %d, named drops = %d", lost, agg.perturbed.dropped)
		} else {
			// Heartbeats keep the crash regime's queue busy forever, so
			// messages still in flight at cutoff are neither delivered nor
			// dropped; attribution may only undershoot the loss, never
			// exceed it, and the injected faults must actually bite.
			res.check(in.name+": attributed drops within losses",
				agg.perturbed.dropped > 0 && agg.perturbed.dropped <= lost,
				"sent-delivered = %d, named drops = %d", lost, agg.perturbed.dropped)
		}
		if len(causes) > 0 {
			parts := make([]string, 0, len(causes))
			for c := range causes {
				parts = append(parts, string(c))
			}
			sort.Strings(parts)
			for j, c := range parts {
				parts[j] = fmt.Sprintf("%s=%d", c, causes[metrics.DropCause(c)])
			}
			res.Table.Notes = append(res.Table.Notes,
				fmt.Sprintf("%s drop causes: %s", in.name, strings.Join(parts, " ")))
		}
	}
	res.check("zero lookAhead-spec violations", totalViolations == 0,
		"%d violations across %d seeds x %d intensities (%d quiescent checks)",
		totalViolations, seeds, len(intensities), totalChecks)
	res.Table.Notes = append(res.Table.Notes,
		fmt.Sprintf("chaos seed offset %d; inflation is perturbed/fault-free twin on the identical walk "+
			"(the twin pays worst-case delays, so sampled-delay runs can come in under 1.00)", env.ChaosSeed))
	return res, nil
}
