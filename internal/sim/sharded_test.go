package sim

import (
	"reflect"
	"testing"
	"time"
)

// procWorld is the engine's test program, shaped like its one consumer:
// worldProcs share-nothing processes, process p living on shard p·K/8 (the
// parallel tracker's band-to-shard rule), whose events reschedule and cancel
// on their own kernel only, and inputs the driver sends between
// runs. Every executed event is logged twice — under its process and under
// its kernel — so a run can be compared process by process across K and
// kernel by kernel against a standalone sim.Kernel.
type procWorld struct {
	kernels  []*Kernel
	home     func(p int) int                         // index into kernels; -1: p is not part of this world
	send     func(from, to int, due Time, fn func()) // between runs only
	runUntil func(t Time)
	run      func()

	state  [worldProcs]uint64
	byProc [worldProcs][]logRec
	byKern [][]logRec // one log per kernel, written by that kernel's events only
}

type logRec struct {
	at   Time
	proc int
	tag  uint64
}

const worldProcs = 8

func shardOfProc(p, k int) int { return p * k / worldProcs }

func (w *procWorld) log(p int, tag uint64) {
	h := w.home(p)
	now := w.kernels[h].Now()
	w.state[p] = mix64(w.state[p] ^ tag ^ uint64(now))
	r := logRec{at: now, proc: p, tag: w.state[p]}
	w.byProc[p] = append(w.byProc[p], r)
	w.byKern[h] = append(w.byKern[h], r)
}

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// start arms process p: a tick chain whose period depends on p (so shards
// finish at different times and same-instant ties across processes occur),
// a follow-up event per tick, and a decoy that every other tick cancels.
func (w *procWorld) start(p int) {
	k := w.kernels[w.home(p)]
	period := time.Duration(3+p%3) * time.Millisecond
	n := 0
	var tick func()
	tick = func() {
		n++
		w.log(p, uint64(n))
		decoy := k.Schedule(period/2, func() { w.log(p, 0xdec0) })
		if n%2 == 0 {
			decoy.Cancel()
		}
		k.Schedule(period/3, func() { w.log(p, 0xf0110) })
		if n < 40 {
			k.Schedule(period, tick)
		}
	}
	k.At(time.Duration(p)*time.Millisecond, tick)
}

// drive is the fixed program: arm every process, run to an instant, hand
// over inputs that collide at one due time on their destinations from
// senders on both sides, drain, and repeat once.
func (w *procWorld) drive() {
	w.byKern = make([][]logRec, len(w.kernels))
	for p := 0; p < worldProcs; p++ {
		if w.home(p) >= 0 {
			w.start(p)
		}
	}
	w.runUntil(30 * time.Millisecond)
	for round, due := range []Time{31 * time.Millisecond, 500 * time.Millisecond} {
		for i, from := range []int{6, 1, 7, 0, 5, 2, 3} {
			for _, to := range []int{3, 4} {
				to, tag := to, uint64(round<<16|i<<8|from)
				w.send(from, to, due, func() { w.log(to, tag) })
			}
		}
		if round == 0 {
			w.runUntil(60 * time.Millisecond)
		}
	}
	w.run()
}

// shardedWorld runs the program on a K-shard engine.
func shardedWorld(k int) (*procWorld, *Sharded) {
	e := NewSharded(1, k)
	w := &procWorld{
		home: func(p int) int { return shardOfProc(p, k) },
		send: func(from, to int, due Time, fn func()) {
			e.Shard(shardOfProc(from, k)).Send(shardOfProc(to, k), due, fn)
		},
		runUntil: func(t Time) { e.RunUntil(t) },
		run:      func() { e.Run() },
	}
	for i := 0; i < k; i++ {
		w.kernels = append(w.kernels, e.Shard(i).Kernel())
	}
	w.drive()
	return w, e
}

// standaloneWorld runs shard i's share of the same program — its processes
// and the inputs addressed to them, in call order — on a plain kernel.
func standaloneWorld(i, k int) (*procWorld, *Kernel) {
	kern := New(1)
	mine := func(p int) bool { return shardOfProc(p, k) == i }
	w := &procWorld{
		kernels: []*Kernel{kern},
		home: func(p int) int {
			if mine(p) {
				return 0
			}
			return -1
		},
		send: func(_, to int, due Time, fn func()) {
			if mine(to) {
				kern.At(due, fn)
			}
		},
		runUntil: func(t Time) { kern.RunUntil(t) },
		run:      func() { kern.Run() },
	}
	w.drive()
	return w, kern
}

// Shard count is an execution detail: at K = 1, 2, 4, 8 every process runs
// the same event sequence, and each shard's kernel executes exactly the
// sequence — events, times, clock and step count — that a standalone
// sim.Kernel given the same inputs executes.
func TestShardedDeterministicAcrossShardCounts(t *testing.T) {
	base, _ := shardedWorld(1)
	for p := range base.byProc {
		if len(base.byProc[p]) < 80 {
			t.Fatalf("degenerate baseline: process %d logged %d events", p, len(base.byProc[p]))
		}
	}
	for _, k := range []int{1, 2, 4, 8} {
		w, e := shardedWorld(k)
		if !reflect.DeepEqual(w.byProc, base.byProc) {
			t.Errorf("K=%d: per-process event sequences differ from K=1", k)
		}
		if e.Steps() != uint64(len(base.byKern[0])) {
			t.Errorf("K=%d: %d steps, K=1 ran %d", k, e.Steps(), len(base.byKern[0]))
		}
		if (e.CrossSends() == 0) != (k == 1) {
			t.Errorf("K=%d: CrossSends()=%d", k, e.CrossSends())
		}
		for i := 0; i < k; i++ {
			ref, kern := standaloneWorld(i, k)
			got := e.Shard(i).Kernel()
			if !reflect.DeepEqual(w.byKern[i], ref.byKern[0]) {
				t.Errorf("K=%d shard %d: event sequence differs from a standalone kernel's", k, i)
			}
			if got.Now() != kern.Now() || got.Steps() != kern.Steps() || got.Pending() != kern.Pending() {
				t.Errorf("K=%d shard %d: clock %v steps %d pending %d, standalone %v %d %d",
					k, i, got.Now(), got.Steps(), got.Pending(), kern.Now(), kern.Steps(), kern.Pending())
			}
		}
	}
}

// Re-running the same K must be bit-identical too (goroutine scheduling
// must not leak into results); run with -race this doubles as the engine's
// data-race exercise.
func TestShardedRunRepeatable(t *testing.T) {
	a, _ := shardedWorld(4)
	for i := 0; i < 5; i++ {
		if b, _ := shardedWorld(4); !reflect.DeepEqual(a.byProc, b.byProc) {
			t.Fatalf("same-K runs differ (repeat %d)", i)
		}
	}
}

// Inputs sent between runs to one destination at one due time fire at
// exactly that time on the destination clock, in call order, whichever
// shards they were sent from.
func TestShardedSendFiresInCallOrder(t *testing.T) {
	e := NewSharded(1, 8)
	e.RunUntil(time.Millisecond)
	due := 2 * time.Millisecond
	dst := e.Shard(3).Kernel()
	var got []int
	senders := []int{6, 1, 7, 3, 0, 5, 2, 4}
	for _, from := range senders {
		from := from
		e.Shard(from).Send(3, due, func() {
			if dst.Now() != due {
				t.Errorf("input from shard %d fired at %v, want %v", from, dst.Now(), due)
			}
			got = append(got, from)
		})
	}
	if n := e.Run(); n != uint64(len(senders)) {
		t.Fatalf("Run processed %d events, want %d", n, len(senders))
	}
	if !reflect.DeepEqual(got, senders) {
		t.Fatalf("inputs fired in order %v, sent in order %v", got, senders)
	}
	if e.CrossSends() != uint64(len(senders)-1) {
		t.Fatalf("CrossSends()=%d, want %d (the send from shard 3 to itself does not cross)", e.CrossSends(), len(senders)-1)
	}
}

// Send is for the driver, between runs: from inside a running event —
// whether the shard drains on the caller's goroutine or on its own — it
// must refuse loudly.
func TestShardedSendDuringRunPanics(t *testing.T) {
	e := NewSharded(1, 2)
	panicked := [2]bool{}
	for i := 0; i < 2; i++ {
		i, s := i, e.Shard(i)
		s.Kernel().At(time.Millisecond, func() {
			defer func() { panicked[i] = recover() != nil }()
			s.Send(1-i, 5*time.Millisecond, func() {})
		})
	}
	e.Run()
	if panicked != [2]bool{true, true} {
		t.Fatalf("Send from a running event panicked on shards %v, want both", panicked)
	}
	// Between runs the same call is legal again.
	ok := false
	e.Shard(0).Send(1, 5*time.Millisecond, func() { ok = true })
	e.Run()
	if !ok {
		t.Error("Send between runs was not delivered")
	}
}

// Idle shards cost nothing and hold nobody back: a shard with no events is
// never started, and a busy one runs to completion beside it.
func TestShardedIdleShardsDoNotBlock(t *testing.T) {
	// Shards 1 and 2 get no events at all.
	e := NewSharded(1, 3)
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
	// Run leaves clocks where their last event was: the idle shards never moved.
	want := []Time{999 * time.Microsecond, 0, 0}
	for i := 0; i < e.K(); i++ {
		k := e.Shard(i).Kernel()
		if k.Now() != want[i] || k.Pending() != 0 {
			t.Fatalf("shard %d: clock %v, Pending()=%d after Run, want %v and 0", i, k.Now(), k.Pending(), want[i])
		}
	}
}

// RunUntil must align every shard clock even when a shard had no events.
func TestShardedRunUntilAlignsClocks(t *testing.T) {
	e := NewSharded(1, 4)
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

// Rounds counts the runs in which something executed, not the calls.
func TestShardedRoundsCountRunsThatExecuted(t *testing.T) {
	e := NewSharded(1, 4)
	e.Run()
	e.RunUntil(time.Millisecond)
	if e.Rounds() != 0 {
		t.Fatalf("Rounds()=%d after runs of an empty engine, want 0", e.Rounds())
	}
	e.Shard(1).Kernel().At(10*time.Millisecond, func() {})
	e.Shard(3).Kernel().At(10*time.Millisecond, func() {})
	if n := e.RunUntil(5 * time.Millisecond); n != 0 || e.Rounds() != 0 {
		t.Fatalf("RunUntil short of every event: %d events, Rounds()=%d, want 0 and 0", n, e.Rounds())
	}
	if n := e.Run(); n != 2 || e.Rounds() != 1 {
		t.Fatalf("Run over two busy shards: %d events, Rounds()=%d, want 2 and 1", n, e.Rounds())
	}
	e.Run()
	if e.Rounds() != 1 {
		t.Fatalf("Rounds()=%d after a run with nothing left, want 1", e.Rounds())
	}
}

// The path of a find that touches one stack — an input sent across shards,
// then a run in which that shard alone has work — allocates nothing and
// starts no goroutine.
func TestShardedSendZeroAlloc(t *testing.T) {
	e := NewSharded(1, 2)
	s := e.Shard(0)
	fn := func() {}
	cycle := func() {
		s.Send(1, Add(e.Shard(1).Kernel().Now(), time.Millisecond), fn)
		e.Run()
	}
	cycle() // warm the destination kernel's arena
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("cross-shard Send plus a one-shard Run allocates %.1f/op, want 0", allocs)
	}
}
