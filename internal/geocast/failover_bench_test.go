package geocast

import (
	"runtime"
	"testing"

	"vinestalk/internal/geo"
	"vinestalk/internal/vsa"
)

// failoverWorld builds a 16×16 grid with a diagonal band of dead VSAs, so
// the static next hop from west to east is dead and every routing decision
// goes through the failover path. It returns the service plus a west→east
// (cur, to) pair whose static hop is down.
func failoverWorld(tb testing.TB) (*Service, geo.RegionID, geo.RegionID) {
	tb.Helper()
	const w, h = 16, 16
	_, layer, svc, _ := setup(tb, w, h)
	g := geo.MustGridTiling(w, h)
	// Kill a vertical band at x=8 (leaving gaps at y=0 and y=15 so routes
	// exist): clients move one column west, emptying their home regions.
	for y := 1; y < h-1; y++ {
		dead := g.RegionAt(8, y)
		if err := layer.MoveClient(vsa.ClientID(dead), g.RegionAt(7, y)); err != nil {
			tb.Fatal(err)
		}
	}
	cur, to := g.RegionAt(7, 8), g.RegionAt(9, 8)
	if layer.Alive(svc.Graph().NextHop(cur, to)) {
		tb.Fatal("static next hop unexpectedly alive; world does not exercise failover")
	}
	return svc, cur, to
}

// The cached failover hop must agree with a freshly-run BFS.
func TestFailoverCacheMatchesUncached(t *testing.T) {
	svc, cur, to := failoverWorld(t)
	want := svc.aliveNextHopUncached(cur, to)
	if want == geo.NoRegion {
		t.Fatal("no live route in failover world")
	}
	for i := 0; i < 3; i++ {
		if got := svc.aliveNextHop(cur, to); got != want {
			t.Fatalf("call %d: cached aliveNextHop = %v, uncached BFS = %v", i, got, want)
		}
	}
}

// The failover cache holds the pairs that failed over, not every pair of
// regions: on a 256×256 grid, where an n × n table of entries would be 68 GB,
// routing one message around one dead relay costs the BFS scratch and a few
// table slots.
func TestFailoverCacheIsBoundedByFailovers(t *testing.T) {
	const side = 256
	k, layer, svc, _ := setup(t, side, side)
	g := geo.MustGridTiling(side, side)
	from, to := g.RegionAt(3, side/2), g.RegionAt(side-4, side/2)
	dead := svc.Graph().NextHop(from, to)
	heap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := heap()
	if err := layer.MoveClient(vsa.ClientID(dead), from); err != nil { // dead's VSA fails
		t.Fatal(err)
	}
	if layer.Alive(dead) {
		t.Fatal("static first hop still alive; the route would not fail over")
	}
	arrived := false
	if err := svc.Send(from, to, func() { arrived = true }); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if !arrived {
		t.Fatal("message did not get around the dead relay")
	}
	if grew := heap() - before; grew > 8<<20 {
		t.Errorf("one failover grew the heap by %d MB, want < 8 MB", grew>>20)
	}
	runtime.KeepAlive(svc) // the cache is measured, not collected
}

// Steady-state failover routing (cache hit) must not allocate: the cache is
// a flat epoch-stamped array and the BFS scratch is reused.
func TestCachedFailoverNextHopZeroAlloc(t *testing.T) {
	svc, cur, to := failoverWorld(t)
	svc.Graph().Precompute()
	svc.aliveNextHop(cur, to) // warm: allocates cache and scratch, runs the BFS
	allocs := testing.AllocsPerRun(1000, func() {
		if svc.nextHop(cur, to) == geo.NoRegion {
			t.Fatal("route vanished")
		}
	})
	if allocs != 0 {
		t.Errorf("cached failover nextHop allocates %.1f objects/op, want 0", allocs)
	}
	// A cache miss (epoch moved) must also be allocation-free once the
	// scratch buffers exist.
	allocs = testing.AllocsPerRun(1000, func() {
		if svc.aliveNextHopUncached(cur, to) == geo.NoRegion {
			t.Fatal("route vanished")
		}
	})
	if allocs != 0 {
		t.Errorf("scratch-buffer BFS allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkGeocastFailover compares routing around dead VSAs with the
// epoch cache (steady state: every lookup hits) against recomputing the
// alive-subgraph BFS per hop, which is what every message paid before.
func BenchmarkGeocastFailover(b *testing.B) {
	b.Run("cached", func(b *testing.B) {
		svc, cur, to := failoverWorld(b)
		svc.Graph().Precompute()
		svc.nextHop(cur, to) // warm
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if svc.nextHop(cur, to) == geo.NoRegion {
				b.Fatal("route vanished")
			}
		}
	})
	b.Run("uncached", func(b *testing.B) {
		svc, cur, to := failoverWorld(b)
		svc.Graph().Precompute()
		svc.aliveNextHopUncached(cur, to) // warm the scratch buffers
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if svc.aliveNextHopUncached(cur, to) == geo.NoRegion {
				b.Fatal("route vanished")
			}
		}
	})
}
