package core

import (
	"testing"
	"time"

	"vinestalk/internal/chaos"
	"vinestalk/internal/evader"
	"vinestalk/internal/geo"
	"vinestalk/internal/sim"
	"vinestalk/internal/tracker"
)

// Under a chaos plan with crashes, churn, and injected loss — but no
// heartbeats, so the event queue drains completely once the fault horizon
// passes — every point-to-point transport send must resolve to exactly one
// delivery or one named drop: drop-cause counters sum to (sent − delivered)
// per kind.
func TestChaosDropAccountingConserves(t *testing.T) {
	unit := 15 * time.Millisecond
	moves := 10
	horizon := sim.Time(moves) * 10 * unit
	kinds := []string{"transport/client", "transport/hop", "transport/geocast"}

	var totalDrops int64
	for seed := int64(1); seed <= 3; seed++ {
		svc, err := New(Config{
			Width:    8,
			Start:    9,
			Seed:     seed*131 + 5,
			TRestart: 2 * unit,
			Chaos: &chaos.Config{
				Seed: seed, DelayJitter: true,
				CrashWindows: 2, CrashLen: 20 * unit,
				ChurnClients: 2, ChurnPeriod: 10 * unit,
				DropProb: 0.2, Horizon: horizon,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		walk := chaos.NewStreams(seed).Stream("walk")
		model := evader.RandomWalk{Tiling: svc.Tiling()}
		for i := 0; i < moves; i++ {
			if err := svc.MoveEvader(model.Next(walk, svc.Evader().Region())); err != nil {
				t.Fatal(err)
			}
			svc.RunFor(10 * unit)
		}
		// Faults cease at the horizon; without heartbeats nothing keeps the
		// queue alive, so the run drains fully. The tracking path may be
		// broken (no recovery layer) — only transport accounting is at
		// stake here, so the Settle quiescence assertion is skipped.
		if _, err := svc.Kernel().RunLimited(5_000_000); err != nil {
			t.Fatalf("seed %d never drained: %v", seed, err)
		}

		// Whatever way a protocol message died — at a failed VSA, to loss, for
		// want of a route out of its sender's own region, which resolves it
		// inside the send — it left the in-transit registry.
		if left := svc.Network().InTransit(); len(left) != 0 {
			t.Errorf("seed %d: %d messages still registered in transit after the queue drained: %v", seed, len(left), left)
		}

		snap := svc.Ledger().Snapshot()
		for _, kind := range kinds {
			var dropped int64
			for cause, v := range snap.Drops[kind] {
				if cause == "" {
					t.Errorf("seed %d: %s has drops under an empty cause", seed, kind)
				}
				dropped += v
			}
			totalDrops += dropped
			if lost := snap.MsgCount[kind] - snap.Delivered[kind]; lost != dropped {
				t.Errorf("seed %d: %s sent=%d delivered=%d: lost %d but %d named drops",
					seed, kind, snap.MsgCount[kind], snap.Delivered[kind], lost, dropped)
			}
		}
	}
	// The plan must actually exercise the drop paths, or the conservation
	// equalities above are vacuous.
	if totalDrops == 0 {
		t.Fatal("chaos plan produced no drops; conservation check is vacuous")
	}
}

// A protocol message that dies at a failed VSA must leave the in-transit
// registry: nothing will ever deliver it, so an entry left behind keeps
// MoveQuiescent false — and every later Settle failing — for the rest of the
// run, hands the lookAhead checker a phantom message, and grows the registry
// by one entry per drop. The script: a move's growNbr announcement is in
// flight to a neighbor cluster when that cluster's head region loses its VSA
// (oracle host: its only client fails; emulated host: every emulating node
// of the region fails).
func TestOracleDropSettlesRegistry(t *testing.T) {
	const from, to = geo.RegionID(15), geo.RegionID(11)
	for _, host := range []string{"oracle", "emulated"} {
		t.Run(host, func(t *testing.T) {
			cfg := Config{Width: 4, Start: from, TRestart: 100 * time.Millisecond}
			if host == "emulated" {
				cfg.AlwaysAliveVSAs = true
				cfg.Emulation = &EmulationConfig{}
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Settle(); err != nil {
				t.Fatal(err)
			}
			net, h := s.Network(), s.Hierarchy()
			if err := s.MoveEvader(to); err != nil {
				t.Fatal(err)
			}
			// Step until a growNbr is in flight to a cluster headed at neither
			// end of the move.
			victim := geo.NoRegion
			for step := 0; victim == geo.NoRegion; step++ {
				if step == 10_000 || !s.Kernel().Step() {
					t.Fatalf("move %v → %v never had a growNbr in flight to a third region", from, to)
				}
				for _, tr := range net.InTransit() {
					if u := h.Head(tr.To); tr.Kind == tracker.KindGrowNbr && u != from && u != to {
						victim = u
						break
					}
				}
			}
			if host == "emulated" {
				for _, id := range s.Emulator().Members(victim) {
					s.Emulator().FailNode(id)
				}
			} else {
				for _, id := range s.Layer().ClientsIn(victim) {
					s.Layer().FailClient(id)
				}
				if s.Layer().Alive(victim) {
					t.Fatalf("region %v's VSA survived losing its clients", victim)
				}
			}
			s.RunFor(10 * time.Second)
			if n := s.Kernel().Pending(); n != 0 {
				t.Fatalf("%d events still queued after 10 s", n)
			}
			if left := net.InTransit(); len(left) != 0 {
				t.Errorf("in-transit registry still holds %v after the queue drained", left)
			}
			if !net.MoveQuiescent() {
				t.Error("MoveQuiescent is false with an empty queue")
			}
			if err := s.Settle(); err != nil {
				t.Errorf("Settle after the drop: %v", err)
			}
			// The ledger agrees: the announcement kind (never sent by clients,
			// so every send is a C-gcast message) conserves, and on the oracle
			// host the death shows as a named drop.
			after := s.Ledger().Snapshot()
			const kind = "proto/" + tracker.KindGrowNbr
			var dropped int64
			for _, v := range after.Drops[kind] {
				dropped += v
			}
			if sent := after.MsgCount[kind]; sent != after.Delivered[kind]+dropped {
				t.Errorf("%s: sent %d != delivered %d + dropped %d", kind, sent, after.Delivered[kind], dropped)
			}
			if host == "oracle" && dropped == 0 {
				t.Error("no growNbr drop was recorded: the message was not in flight to the failed VSA")
			}
		})
	}
}
