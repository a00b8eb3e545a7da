package sim

import (
	"fmt"
	"testing"
	"time"
)

// objCascadeWorld is the multi-object tracking workload shape on the
// parallel engine: k objects, each with a home region on a G×G board split
// into K row bands. An object's cascade — the grow/find climb the tracker
// runs per move — is L sequential events keyed by the shard owning the
// object's home region (per-object state is private, so Theorem 4.9's
// independence makes the events commute across objects), and the final
// level posts a commutative update to the shared root shard with due ≥
// now+δ. Independent objects' cascades run truly in parallel on Sharded
// shards, and the root accumulator counts how often consecutive updates in
// its deterministic merge order switch objects — the Mohamed & Robert
// interference term that no amount of sharding removes.
type objCascadeWorld struct {
	eng    *Sharded
	g, k   int
	objs   int
	levels int
	rounds int

	state []uint64 // 4 private lanes per object

	// Root-shard state: touched only by root-shard events. rootSwitch
	// counts object switches within one delivery round (same due instant);
	// an object posts at most one update per round, so the count equals
	// (distinct objects in the round − 1) — independent of the round's
	// internal merge order, hence identical at every shard count.
	rootSum    uint64
	rootDue    Time
	rootLast   int64
	rootSwitch uint64
}

const objLanes = 4

func newObjCascadeWorld(g, k, objs, levels, rounds int) *objCascadeWorld {
	w := &objCascadeWorld{
		eng:      NewSharded(1, k, gridDelta),
		g:        g,
		k:        k,
		objs:     objs,
		levels:   levels,
		rounds:   rounds,
		state:    make([]uint64, objs*objLanes),
		rootLast: -1,
	}
	for obj := 0; obj < objs; obj++ {
		w.bind(obj)
	}
	return w
}

// bind pre-binds object obj's cascade closures on its home shard.
func (w *objCascadeWorld) bind(obj int) {
	home := (obj * 7919) % (w.g * w.g) // deterministic scatter
	shard := w.eng.Shard(bandOf(home/w.g, w.g, w.k))
	kern := shard.Kernel()
	rootShard := bandOf(0, w.g, w.k)
	st := w.state[obj*objLanes : (obj+1)*objLanes : (obj+1)*objLanes]

	o := int64(obj)
	rc := uint64(0) // root-update count; only the root closure touches it
	rootKern := w.eng.Shard(rootShard).Kernel()
	rootUpdate := func() {
		rc++
		w.rootSum += mix64(uint64(o)<<20 | rc) // addition commutes across objects
		if now := rootKern.Now(); now != w.rootDue || w.rootLast == -1 {
			w.rootDue, w.rootLast = now, o // first update of this round
			return
		}
		if w.rootLast != o {
			w.rootSwitch++
			w.rootLast = o
		}
	}

	level, round := 0, 0
	var step func()
	step = func() {
		for l := range st {
			st[l] = st[l]*6364136223846793005 + uint64(obj)*2862933555777941757 + uint64(l) + 1
		}
		level++
		if level < w.levels {
			kern.Schedule(gridDelta, step) // climb: stays on the home shard
			return
		}
		// Top of the path: post the shared-root update, δ away.
		shard.Send(rootShard, Add(kern.Now(), gridDelta), rootUpdate)
		level = 0
		round++
		if round < w.rounds {
			kern.Schedule(2*gridDelta, step) // next move's cascade
		}
	}
	kern.At(time.Duration(obj%997)*time.Microsecond, step)
}

func (w *objCascadeWorld) checksum() uint64 {
	var sum uint64
	for i, v := range w.state {
		sum += v * (uint64(i)*2 + 1)
	}
	return sum + w.rootSum*0x9E3779B97F4A7C15
}

// Independent objects' cascades must produce identical state, root
// accumulation, and interference counts at every shard count — the
// commuting-program argument that licenses object-sharded scheduling.
func TestObjectCascadeDeterministicAcrossShardCounts(t *testing.T) {
	const g, objs, levels, rounds = 32, 2000, 5, 3
	base := newObjCascadeWorld(g, 1, objs, levels, rounds)
	baseEvents := base.eng.Run()
	baseSum := base.checksum()
	baseSwitch := base.rootSwitch
	if baseEvents == 0 || baseSum == 0 {
		t.Fatalf("degenerate baseline: events=%d checksum=%d", baseEvents, baseSum)
	}
	if baseSwitch == 0 {
		t.Fatal("no root contention observed; workload not exercising the shared head")
	}
	for _, k := range []int{2, 4, 8} {
		w := newObjCascadeWorld(g, k, objs, levels, rounds)
		events := w.eng.Run()
		if events != baseEvents {
			t.Errorf("K=%d processed %d events, K=1 processed %d", k, events, baseEvents)
		}
		if sum := w.checksum(); sum != baseSum {
			t.Errorf("K=%d checksum %x differs from K=1 checksum %x", k, sum, baseSum)
		}
		if w.rootSwitch != baseSwitch {
			t.Errorf("K=%d root contention %d differs from K=1's %d", k, w.rootSwitch, baseSwitch)
		}
		if k > 1 && w.eng.CrossSends() == 0 {
			t.Errorf("K=%d: no cross-shard root updates", k)
		}
	}
}

// BenchmarkObjectShardedCascade measures events/sec of the multi-object
// cascade workload at K ∈ {1, 2, 4, 8} shards, and reports the shared-root
// interference as contention per event (object switches in the root's
// delivery order ÷ events executed) — the shared-head term of Mohamed &
// Robert (PAPERS.md), which no benchmark/ workload prices.
func BenchmarkObjectShardedCascade(b *testing.B) {
	const g, objs, levels, rounds = 64, 20000, 6, 4
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			var events, switches uint64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				w := newObjCascadeWorld(g, k, objs, levels, rounds)
				b.StartTimer()
				events += w.eng.Run()
				switches += w.rootSwitch
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
			b.ReportMetric(float64(switches)/float64(events), "contention")
		})
	}
}
