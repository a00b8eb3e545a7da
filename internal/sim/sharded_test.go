package sim

import (
	"testing"
	"time"
)

// gridWorld is the synthetic large-grid workload shared by the sharded
// engine's tests and the shard-scaling benchmark: a G×G board of regions
// split into K horizontal bands, one shard per band. Every region runs a
// resettable timer with period δ and a per-region phase; each tick mixes
// the region's 64-byte state, and every fourth tick sends a commutative
// update to the region's south neighbor with due = now+δ — crossing a
// band boundary when the neighbor's row belongs to the next shard. All
// closures are pre-bound at setup, so the steady state allocates nothing.
type gridWorld struct {
	eng   *Sharded
	g     int
	state []uint64 // 8 lanes per region (64 B)
	ticks []uint32
}

const (
	gridDelta  = 10 * time.Millisecond // δ = tick period
	worldLanes = 8
)

func bandOf(y, g, k int) int { return y * k / g }

func newGridWorld(g, k int) *gridWorld {
	w := &gridWorld{
		eng:   NewSharded(1, k, gridDelta),
		g:     g,
		state: make([]uint64, g*g*worldLanes),
		ticks: make([]uint32, g*g),
	}
	for u := 0; u < g*g; u++ {
		w.bind(u, k)
	}
	return w
}

// bind arms region u's timer and pre-binds its tick and south-send
// closures on the owning shard.
func (w *gridWorld) bind(u, k int) {
	g := w.g
	shard := w.eng.Shard(bandOf(u/g, g, k))
	kern := shard.Kernel()
	st := w.state[u*worldLanes : (u+1)*worldLanes : (u+1)*worldLanes]

	// South-neighbor update: executes on the *destination* shard, reading
	// the destination clock; addition commutes, so arrival order at an
	// instant cannot change the final state across shard counts.
	var deliver func()
	dst := -1
	if v := u + g; v < g*g {
		dst = bandOf(v/g, g, k)
		dv := w.state[v*worldLanes : (v+1)*worldLanes : (v+1)*worldLanes]
		dstKern := w.eng.Shard(dst).Kernel()
		src := uint64(u)
		deliver = func() {
			dv[0] += mix64(src ^ uint64(dstKern.Now()))
		}
	}

	var tick func()
	tick = func() {
		for l := range st {
			st[l] = st[l]*6364136223846793005 + uint64(u)*2862933555777941757 + uint64(l) + 1
		}
		w.ticks[u]++
		if deliver != nil && w.ticks[u]%4 == 0 {
			shard.Send(dst, Add(kern.Now(), gridDelta), deliver)
		}
		kern.Schedule(gridDelta, tick)
	}
	kern.At(time.Duration(u%1000)*time.Microsecond, tick)
}

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// checksum position-weights every lane so misrouted or lost updates show.
func (w *gridWorld) checksum() uint64 {
	var sum uint64
	for i, v := range w.state {
		sum += v * (uint64(i)*2 + 1)
	}
	return sum
}

// The tentpole's determinism bar: the same workload run at K = 1, 2, 4, 8
// produces identical state and identical event counts — shard count is an
// execution detail, not a semantic one.
func TestShardedDeterministicAcrossShardCounts(t *testing.T) {
	const g, periods = 48, 14
	horizon := time.Duration(periods) * gridDelta

	base := newGridWorld(g, 1)
	baseEvents := base.eng.RunUntil(horizon)
	baseSum := base.checksum()
	if baseEvents == 0 || baseSum == 0 {
		t.Fatalf("degenerate baseline: events=%d checksum=%d", baseEvents, baseSum)
	}

	for _, k := range []int{2, 4, 8} {
		w := newGridWorld(g, k)
		events := w.eng.RunUntil(horizon)
		if events != baseEvents {
			t.Errorf("K=%d processed %d events, K=1 processed %d", k, events, baseEvents)
		}
		if sum := w.checksum(); sum != baseSum {
			t.Errorf("K=%d checksum %x differs from K=1 checksum %x", k, sum, baseSum)
		}
		if w.eng.CrossSends() == 0 {
			t.Errorf("K=%d: no cross-shard messages; workload not exercising inboxes", k)
		}
		if w.eng.Now() != horizon {
			t.Errorf("K=%d: Now()=%v after RunUntil(%v)", k, w.eng.Now(), horizon)
		}
	}
}

// Re-running the same K must be bit-identical too (goroutine scheduling
// must not leak into results); run with -race this doubles as the engine's
// data-race exercise.
func TestShardedRunRepeatable(t *testing.T) {
	run := func() uint64 {
		w := newGridWorld(32, 4)
		w.eng.RunUntil(10 * gridDelta)
		return w.checksum()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same-K runs differ: %x vs %x", a, b)
	}
}

// Cross-shard messages must arrive exactly at their due time on the
// destination clock — never in the receiver's past, never early.
func TestShardedConservativeDelivery(t *testing.T) {
	e := NewSharded(1, 2, time.Millisecond)
	a, b := e.Shard(0), e.Shard(1)
	type arrival struct{ want, got Time }
	var arrivals []arrival
	for i := 1; i <= 20; i++ {
		a.Kernel().At(time.Duration(i)*2*time.Millisecond, func() {
			at := Add(a.Kernel().Now(), time.Millisecond)
			a.Send(1, at, func() {
				arrivals = append(arrivals, arrival{want: at, got: b.Kernel().Now()})
			})
		})
	}
	e.Run()
	if len(arrivals) != 20 {
		t.Fatalf("delivered %d of 20 messages", len(arrivals))
	}
	for i, ar := range arrivals {
		if ar.got != ar.want {
			t.Errorf("message %d arrived at %v, want %v", i, ar.got, ar.want)
		}
		if i > 0 && ar.got < arrivals[i-1].got {
			t.Errorf("message %d arrived out of order", i)
		}
	}
}

// A cross-shard send inside the δ window is a programming error the engine
// must refuse loudly.
func TestShardedLookaheadViolationPanics(t *testing.T) {
	e := NewSharded(1, 2, 5*time.Millisecond)
	s := e.Shard(0)
	s.Kernel().At(10*time.Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("Send with due < now+δ did not panic")
			}
		}()
		s.Send(1, Add(s.Kernel().Now(), 4*time.Millisecond), func() {})
	})
	e.Run()
	// The boundary itself is legal: due == now+δ.
	ok := false
	e2 := NewSharded(1, 2, 5*time.Millisecond)
	s0 := e2.Shard(0)
	s0.Kernel().At(time.Millisecond, func() {
		s0.Send(1, Add(s0.Kernel().Now(), 5*time.Millisecond), func() { ok = true })
	})
	e2.Run()
	if !ok {
		t.Error("boundary send (due == now+δ) was not delivered")
	}
}

// Idle shards must not throttle busy ones: a shard whose senders are all
// idle has horizon Forever and runs to completion, and an entirely empty
// shard costs nothing.
func TestShardedIdleShardsDoNotBlock(t *testing.T) {
	// Shards 1 and 2 get no events at all.
	e := NewSharded(1, 3, time.Millisecond)
	n := 0
	s := e.Shard(0)
	var tick func()
	tick = func() {
		n++
		if n < 1000 {
			s.Kernel().Schedule(time.Microsecond, tick)
		}
	}
	s.Kernel().At(0, tick)
	if got := e.Run(); got != 1000 {
		t.Fatalf("processed %d events, want 1000", got)
	}
	if e.Now() != 0 {
		// Shard 0's clock advanced; Now() is the min over shards and the
		// idle shards never moved, which is fine for Run semantics.
		t.Logf("min clock after Run: %v", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending()=%d after Run", e.Pending())
	}
}

// RunUntil must align every shard clock even when a shard had no events.
func TestShardedRunUntilAlignsClocks(t *testing.T) {
	e := NewSharded(1, 4, time.Millisecond)
	e.Shard(2).Kernel().At(3*time.Millisecond, func() {})
	e.RunUntil(50 * time.Millisecond)
	for i := 0; i < e.K(); i++ {
		if now := e.Shard(i).Kernel().Now(); now != 50*time.Millisecond {
			t.Fatalf("shard %d clock %v, want 50ms", i, now)
		}
	}
	if e.Steps() != 1 {
		t.Fatalf("Steps()=%d, want 1", e.Steps())
	}
}

// The per-shard steady state must stay allocation-free: a Send into a
// warmed inbox (retained flip-buffer capacity, pre-bound closure) and the
// shard-local timer path allocate nothing.
func TestShardedSendZeroAlloc(t *testing.T) {
	e := NewSharded(1, 2, time.Millisecond)
	s := e.Shard(0)
	fn := func() {}
	// Warm: grow the inbox and the destination spare buffer once, then
	// drain so capacity is retained.
	for i := 0; i < 2048; i++ {
		s.Send(1, Add(s.Kernel().Now(), time.Millisecond), fn)
	}
	e.RunUntil(2 * time.Millisecond)
	due := Add(s.Kernel().Now(), time.Millisecond)
	allocs := testing.AllocsPerRun(1000, func() {
		s.Send(1, due, fn)
	})
	if allocs != 0 {
		t.Fatalf("cross-shard Send allocates %.1f/op in steady state, want 0", allocs)
	}
}
