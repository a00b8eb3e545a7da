package sim

import (
	"fmt"
	"slices"
	"sync"
)

// Sharded runs K arena kernels under a conservative barrier, multiplying
// the single-threaded kernel across a spatial partition of the simulated
// world (classic conservative parallel discrete-event simulation).
//
// The lookahead comes from geography: no message crosses a region boundary
// in less than the minimum link delay δ, and every other shard is a
// potential sender, so a shard that knows each other shard's earliest
// unprocessed event time `next[j]` may safely execute everything strictly
// before
//
//	horizon[i] = δ + min over j ≠ i of next[j]
//
// without ever receiving a message in its past. The engine alternates
// barrier rounds: flush every shard's inbox into its kernel, snapshot
// next-event times, grant each shard its horizon, and run the shards
// concurrently. Events executed in a round may send cross-shard messages;
// a message produced by an event at time τ carries due ≥ τ+δ ≥ horizon of
// any receiver, so flushing at the next barrier is always in the
// receiver's future. The global minimum next-event time advances by at
// least δ every round, so the loop never deadlocks.
//
// Determinism: each shard's kernel executes its events in (time, local
// seq) order exactly as a standalone kernel would, and inbox flushes
// insert messages in (due, sender shard, sender seq) order, so a run is a
// pure function of the program — goroutine scheduling never changes
// results. Programs whose cross-shard effects at equal timestamps commute
// (or that never collide at an instant across a boundary) produce
// identical state at every K; the engine's tests pin this on a grid
// workload. Per-shard RNG streams are per-shard: a program that wants
// K-independent results must not draw from Kernel.Rand.
//
// The per-shard hot path is untouched: Schedule/Cancel/Step run on the
// PR-4 index-stable arena and 4-ary heap, zero-alloc in steady state, and
// Send into a warmed inbox allocates nothing. Barrier costs (K goroutine
// wakeups, an O(K) snapshot) amortize over the full δ-window of events.
type Sharded struct {
	delta  Time
	shards []*Shard
	next   []Time // per-round snapshot scratch
	rounds uint64
}

// Shard is one partition of a Sharded engine: a private kernel plus an
// inbox for messages from other shards. All methods on the embedded
// kernel, and Send, must only be called from the shard's own events (or
// from setup code before the engine runs).
type Shard struct {
	eng     *Sharded
	id      int
	k       *Kernel
	sendSeq uint64 // owner-only; tie-break key for the destination's merge

	inboxMu sync.Mutex
	inbox   []xmsg
	spare   []xmsg // coordinator-side flip buffer, capacity retained

	horizon   Time   // written by the coordinator before each round
	processed uint64 // written by the worker, read after the barrier
}

// xmsg is a cross-shard message: an absolute due time plus the
// deterministic merge key (source shard, source send seq).
type xmsg struct {
	due Time
	src int32
	seq uint64
	fn  func()
}

// NewSharded builds an engine of k shards with minimum cross-shard delay
// delta (> 0). Every pair of shards may exchange messages. Each shard's
// kernel gets its own RNG stream derived from seed.
func NewSharded(seed int64, k int, delta Time) *Sharded {
	if k < 1 {
		panic("sim: NewSharded needs at least one shard")
	}
	if delta <= 0 {
		panic("sim: NewSharded needs a positive cross-shard delay")
	}
	e := &Sharded{
		delta:  delta,
		shards: make([]*Shard, k),
		next:   make([]Time, k),
	}
	for i := range e.shards {
		e.shards[i] = &Shard{eng: e, id: i, k: New(seed + int64(i)*0x9E37)}
	}
	return e
}

// K returns the number of shards.
func (e *Sharded) K() int { return len(e.shards) }

// Delta returns the conservative cross-shard delay.
func (e *Sharded) Delta() Time { return e.delta }

// Shard returns shard i.
func (e *Sharded) Shard(i int) *Shard { return e.shards[i] }

// Rounds returns the number of barrier rounds executed so far.
func (e *Sharded) Rounds() uint64 { return e.rounds }

// Steps returns the total events processed across all shards.
func (e *Sharded) Steps() uint64 {
	var n uint64
	for _, s := range e.shards {
		n += s.k.Steps()
	}
	return n
}

// Now returns the minimum shard clock — the time the whole simulation has
// provably reached. After RunUntil(t) every shard clock equals t.
func (e *Sharded) Now() Time {
	now := e.shards[0].k.Now()
	for _, s := range e.shards[1:] {
		if c := s.k.Now(); c < now {
			now = c
		}
	}
	return now
}

// Pending returns the number of queued events plus undelivered inbox
// messages across all shards.
func (e *Sharded) Pending() int {
	n := 0
	for _, s := range e.shards {
		n += s.k.Pending()
		s.inboxMu.Lock()
		n += len(s.inbox)
		s.inboxMu.Unlock()
	}
	return n
}

// CrossSends returns the total number of cross-shard messages sent.
func (e *Sharded) CrossSends() uint64 {
	var n uint64
	for _, s := range e.shards {
		n += s.sendSeq
	}
	return n
}

// ID returns the shard's index in the engine.
func (s *Shard) ID() int { return s.id }

// Kernel returns the shard's private kernel, for scheduling local events
// and reading the shard-local clock.
func (s *Shard) Kernel() *Kernel { return s.k }

// Send schedules fn at absolute time due on shard `to`. A same-shard send
// is an ordinary kernel insertion. A cross-shard send must respect the
// conservative contract due ≥ Now()+δ — violating it would let a message
// land in the receiver's past, so the engine treats it as a programming
// error and panics. The message is appended to the destination inbox and
// merged into its kernel at the next barrier, ordered by (due, source
// shard, source seq).
func (s *Shard) Send(to int, due Time, fn func()) {
	if to == s.id {
		s.k.At(due, fn)
		return
	}
	if floor := Add(s.k.Now(), s.eng.delta); due < floor {
		panic(fmt.Sprintf("sim: cross-shard send %d->%d due %v violates lookahead (now %v + δ %v)",
			s.id, to, due, s.k.Now(), s.eng.delta))
	}
	s.sendSeq++
	d := s.eng.shards[to]
	d.inboxMu.Lock()
	d.inbox = append(d.inbox, xmsg{due: due, src: int32(s.id), seq: s.sendSeq, fn: fn})
	d.inboxMu.Unlock()
}

// flush moves the inbox into the kernel in deterministic (due, src, seq)
// order. Coordinator-only, between rounds; the flip buffer keeps the
// steady state allocation-free.
func (s *Shard) flush() {
	s.inboxMu.Lock()
	buf := s.inbox
	s.inbox = s.spare[:0]
	s.inboxMu.Unlock()
	slices.SortFunc(buf, func(a, b xmsg) int {
		switch {
		case a.due != b.due:
			if a.due < b.due {
				return -1
			}
			return 1
		case a.src != b.src:
			return int(a.src) - int(b.src)
		case a.seq != b.seq:
			if a.seq < b.seq {
				return -1
			}
			return 1
		}
		return 0
	})
	for i := range buf {
		s.k.At(buf[i].due, buf[i].fn)
		buf[i].fn = nil
	}
	s.spare = buf[:0]
}

// RunUntil processes every event with firing time ≤ t across all shards
// and advances every shard clock to exactly t (the multi-shard analogue of
// Kernel.RunUntil). It returns the number of events processed.
func (e *Sharded) RunUntil(t Time) uint64 {
	total := e.run(t)
	for _, s := range e.shards {
		s.k.RunUntil(t) // no events ≤ t remain; aligns the clock
	}
	return total
}

// Run drains the engine: every shard runs until no events or messages
// remain anywhere. Shard clocks are left at their last executed event.
// It returns the number of events processed.
func (e *Sharded) Run() uint64 { return e.run(Forever) }

func (e *Sharded) run(t Time) uint64 {
	var total uint64
	hcap := Add(t, 1) // horizons are exclusive; include events at exactly t
	var wg sync.WaitGroup
	for {
		for _, s := range e.shards {
			s.flush()
		}
		global := Forever
		for i, s := range e.shards {
			e.next[i] = s.k.NextEventTime()
			if e.next[i] < global {
				global = e.next[i]
			}
		}
		if global == Forever || global > t {
			return total
		}
		e.rounds++
		for i, s := range e.shards {
			h := Forever
			for j, next := range e.next {
				if j != i && next < h {
					h = next
				}
			}
			h = Add(h, e.delta)
			if h > hcap {
				h = hcap
			}
			s.horizon = h
		}
		for _, s := range e.shards {
			if e.next[s.id] >= s.horizon {
				s.processed = 0
				continue // nothing runnable inside this shard's window
			}
			wg.Add(1)
			go func(s *Shard) {
				defer wg.Done()
				s.processed = uint64(s.k.RunBefore(s.horizon))
			}(s)
		}
		wg.Wait()
		for _, s := range e.shards {
			total += s.processed
		}
	}
}
