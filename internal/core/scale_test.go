package core

import (
	"runtime"
	"testing"
	"time"

	"vinestalk/internal/geo"
	"vinestalk/internal/tracker"
)

// TestBigGridNeedsNoTable runs a short script on a 512×512 grid — 262 144
// regions, D = 511 — where any n × n table is out of reach (one int32 per
// pair of regions would be 275 GB): the stack assembles, 20 moves and a find
// from a far corner settle, the structure passes the Theorem 4.8 check, and
// the whole world fits in a few hundred megabytes. Nothing on the message
// path may keep per-pair state for this to hold: not the routing graph, not
// geocast's failover cache, not the in-transit registry.
func TestBigGridNeedsNoTable(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 262 144-region world")
	}
	const side = 512
	began := time.Now()
	var founds []tracker.FindResult
	svc, err := New(Config{
		Width:           side,
		Start:           geo.RegionID(side*side/2 + side/2),
		AlwaysAliveVSAs: true,
		FormulaGeometry: true,
		OnFound:         func(r tracker.FindResult) { founds = append(founds, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Settle(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		nbrs := svc.Tiling().Neighbors(svc.Evader().Region())
		if err := svc.MoveEvader(nbrs[(7*i)%len(nbrs)]); err != nil {
			t.Fatal(err)
		}
		if err := svc.Settle(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.Find(0); err != nil {
		t.Fatal(err)
	}
	if err := svc.Settle(); err != nil {
		t.Fatal(err)
	}
	if len(founds) != 1 || founds[0].FoundAt != svc.Evader().Region() {
		t.Fatalf("find from the corner: founds %v, evader at %v", founds, svc.Evader().Region())
	}
	if err := svc.CheckTheorem48(); err != nil {
		t.Fatal(err)
	}

	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if heap := m.HeapAlloc >> 20; heap >= 400 {
		t.Errorf("live heap %d MB, want < 400 MB", heap)
	}
	if took := time.Since(began); took >= 30*time.Second {
		t.Errorf("took %v, want < 30 s", took)
	}
	t.Logf("%d×%d: %v, live heap %d MB, %d kernel events", side, side, time.Since(began).Round(time.Millisecond), m.HeapAlloc>>20, svc.Kernel().Steps())
	runtime.KeepAlive(svc)
}
