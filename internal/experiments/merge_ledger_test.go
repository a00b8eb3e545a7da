package experiments

import (
	"encoding/json"
	"fmt"
	"testing"

	"vinestalk/internal/core"
	"vinestalk/internal/evader"
	"vinestalk/internal/geo"
	"vinestalk/internal/metrics"
)

func snapshotJSON(t *testing.T, s metrics.Snapshot) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
	return string(b)
}

// Real-workload companion to the metrics package's random-ledger merge
// properties: the E1 (find cost) and E2 (move cost) quick workloads run
// against {1, 8} shard-local ledgers, and after every workload unit the
// shared ledger's snapshot delta is attributed to the local ledger owning
// the unit's region under the same geographic partition the parallel
// tracker homes by. MergedSnapshot over the locals must reproduce the
// shared snapshot exactly — real proto kinds, hop work, and deliveries,
// not synthetic records.
func TestMergedLedgerEqualsSharedE1E2(t *testing.T) {
	const side = 16
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for _, workload := range []string{"E1-find", "E2-move"} {
				svc, err := core.New(core.Config{
					Width:           side,
					AlwaysAliveVSAs: true,
					Start:           centerRegion(side),
					Seed:            7,
				})
				if err != nil {
					t.Fatalf("%s: newService: %v", workload, err)
				}
				if err := svc.Settle(); err != nil {
					t.Fatalf("%s: settle: %v", workload, err)
				}
				g := svc.Tiling()
				part := geo.NewPartition(g, shards)
				locals := make([]*metrics.Ledger, shards)
				for i := range locals {
					locals[i] = metrics.NewLedger()
				}
				// The attach/settle cascade ran before any per-unit
				// attribution; it belongs to the evader's start shard.
				prev := svc.Ledger().Snapshot()
				locals[part.ShardOf(centerRegion(side))].AddSnapshot(prev, 1)
				note := func(rg geo.RegionID) {
					cur := svc.Ledger().Snapshot()
					locals[part.ShardOf(rg)].AddSnapshot(cur.Sub(prev), 1)
					prev = cur
				}

				switch workload {
				case "E1-find":
					for d := 1; d <= side/4; d *= 2 {
						for _, u := range originsAtDistance(g, side/2, side/2, d) {
							if _, _, _, err := svc.FindStats(u); err != nil {
								t.Fatalf("find at distance %d from %v: %v", d, u, err)
							}
							note(u)
						}
					}
				case "E2-move":
					model := evader.RandomWalk{Tiling: g}
					for i := 0; i < 32; i++ {
						next := model.Next(svc.Kernel().Rand(), svc.Evader().Region())
						if _, _, _, err := svc.MoveStats(next); err != nil {
							t.Fatalf("move step %d to %v: %v", i, next, err)
						}
						note(next)
					}
				}

				shared := svc.Ledger().Snapshot()
				if shared.TotalMessages() == 0 {
					t.Fatalf("%s: workload recorded no messages — vacuous comparison", workload)
				}
				merged := metrics.MergedSnapshot(locals...)
				if x, y := snapshotJSON(t, merged), snapshotJSON(t, shared); x != y {
					t.Errorf("%s shards=%d: merged != shared:\nmerged=%s\nshared=%s",
						workload, shards, x, y)
				}
			}
		})
	}
}
