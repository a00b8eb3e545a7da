// Package sim provides the deterministic discrete-event simulation kernel
// underneath the VSA layer: a virtual real-time clock, an event queue with
// stable FIFO ordering among simultaneous events, cancellable events,
// resettable timers (the TIOA-style "timer" variables of Fig. 2), and a
// seeded random source.
//
// The kernel substitutes for the physical testbed of the paper: automata
// local steps take zero virtual time (as §II-C.1 assumes), and all message
// delays are imposed by the communication services layered on top. Every
// run is reproducible from its seed.
//
// Performance: the queue orders instants, not events. Events scheduled for
// the same virtual time share a bucket, a FIFO linked through the arena slots
// that hold their callbacks, and a hand-rolled 4-ary min-heap orders the
// buckets by (at, seq when the bucket opened). At appends to the latest
// bucket opened for its time, found through a small direct-mapped table;
// Step takes the head of the top bucket and Cancel unlinks, both O(1) until
// a bucket empties and leaves the heap. C-gcast's fixed delivery schedule
// puts thousands of queued events on a handful of instants, so the heap
// stays a few buckets deep however many events are queued. Schedule,
// Cancel, and Step are allocation-free in steady state (every experiment is
// millions of schedule/cancel/fire cycles). Ordering is exactly (at, seq) —
// simultaneous events fire in scheduling order — so the queue's layout is an
// implementation detail that cannot perturb results: pop order, and
// therefore every simulated table, is byte-identical to the old
// container/heap kernel.
package sim

import (
	"errors"
	"math"
	"math/rand"
	"time"
)

// Time is virtual time since the start of the run.
type Time = time.Duration

// Forever is a time later than any event; it represents the TIOA timer
// value ∞.
const Forever Time = math.MaxInt64

// Add returns t + d saturated at Forever, preserving the TIOA ∞ semantics:
// ∞ plus anything is ∞, and a finite sum that would overflow parks at ∞
// instead of wrapping negative. A negative d is clamped to zero, matching
// Schedule's treatment of negative delays. Every deadline arithmetic in
// this package (Schedule, RunFor, Timer.SetAfter) goes through this one
// helper so the clamp cannot drift out of sync again.
func Add(t, d Time) Time {
	if d < 0 {
		d = 0
	}
	if t == Forever || d == Forever || t > Forever-d {
		return Forever
	}
	return t + d
}

// ErrEventLimit is returned by RunLimited when the event budget is
// exhausted before the queue drains — usually a sign of a livelock in the
// simulated protocol.
var ErrEventLimit = errors.New("sim: event limit exceeded")

// Event is a handle to a scheduled callback, created by Kernel.Schedule and
// Kernel.At. It is a value (no allocation per scheduled event): internally
// it names an arena slot plus the generation the slot had when the event
// was scheduled, so a handle held past its event's firing or cancellation
// becomes harmlessly stale — Cancel on it is a no-op even if the slot has
// been recycled for a different event. The zero Event is inert.
type Event struct {
	k   *Kernel
	at  Time
	idx int32
	gen uint32
}

// When returns the virtual time at which the event fires (or would have).
func (e Event) When() Time { return e.at }

// Cancel prevents the event from firing and removes it from the kernel's
// queue immediately, so repeatedly scheduled-then-cancelled events (timer
// resets) do not accumulate as tombstones until their — possibly far-future
// or parked-at-∞ — firing times. Cancelling an already-fired or
// already-cancelled event is a no-op, as is cancelling the zero Event.
func (e Event) Cancel() {
	k := e.k
	if k == nil {
		return
	}
	s := &k.arena[e.idx]
	if s.gen != e.gen {
		return // already fired or cancelled; the slot may be someone else's
	}
	if e.at != Forever {
		k.runnable--
	}
	k.unlink(e.idx)
	k.release(e.idx)
}

// slot is one arena entry: a queued event's callback and its links in its
// bucket's FIFO. A slot is queued (bkt >= 0) from At until the event fires
// or is cancelled, at which point the slot is released to the free-list and
// its generation bumped, invalidating outstanding handles.
type slot struct {
	fn         func()
	gen        uint32
	bkt        int32 // index in Kernel.buckets, -1 when free
	prev, next int32 // neighbours in the bucket's FIFO, -1 at its ends
}

// bucket is the FIFO of the events queued for one instant, oldest first,
// linked through their slots. A bucket is queued (pos >= 0) while it holds
// an event; the last unlink takes it off the heap and frees it. Its
// instant is its heap entry's.
type bucket struct {
	head, tail int32 // first and last slot of the FIFO
	pos        int32 // position in Kernel.queue, -1 when free
}

// latestBucket is one entry of Kernel.latest: a queued bucket and its
// instant, or at < 0 when the entry names none.
type latestBucket struct {
	at  Time
	bkt int32
}

// entry is one element of the heap: a bucket's sort key (its instant and
// the seq of the event that opened it) and the bucket's index. Sifting
// compares entries in place, so ordering the heap reads no bucket.
type entry struct {
	at  Time
	seq uint64
	idx int32
}

// latestBits is log2 of the number of entries in Kernel.latest.
const latestBits = 3

// Kernel is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; the simulated world is sequential, which is what makes
// runs reproducible. Its queue is a heap of buckets, one FIFO of events per
// queued instant (two or more only after a collision in latest), so its
// depth follows the number of distinct instants, not of events.
type Kernel struct {
	now      Time
	seq      uint64
	arena    []slot   // index-stable event storage
	free     []int32  // released arena slots available for reuse
	buckets  []bucket // index-stable bucket storage
	freeBkts []int32  // freed buckets available for reuse
	queue    []entry  // 4-ary min-heap of buckets ordered by (at, seq)
	// latest is a direct-mapped table from an instant's hash to the latest
	// bucket opened for an instant with that hash, while it is queued. Only
	// that bucket may receive events (see enqueue).
	latest   [1 << latestBits]latestBucket
	runnable int // queued events with a finite firing time
	rng      *rand.Rand
	nsteps   uint64
}

// New returns a kernel at time zero with a deterministic random source
// derived from seed.
func New(seed int64) *Kernel {
	k := &Kernel{rng: rand.New(rand.NewSource(seed))}
	for i := range k.latest {
		k.latest[i].at = -1
	}
	return k
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Steps returns the number of events processed so far.
func (k *Kernel) Steps() uint64 { return k.nsteps }

// Schedule queues fn to run delay after the current time. A negative delay
// is treated as zero. Scheduling at Forever parks the event permanently
// (it can still be cancelled); it never fires.
func (k *Kernel) Schedule(delay Time, fn func()) Event {
	return k.At(Add(k.now, delay), fn)
}

// At queues fn to run at absolute virtual time t. Times in the past are
// clamped to now (the event runs after already-queued events for now).
func (k *Kernel) At(t Time, fn func()) Event {
	if t < k.now {
		t = k.now
	}
	k.seq++
	var idx int32
	if n := len(k.free); n > 0 {
		idx = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		k.arena = append(k.arena, slot{})
		idx = int32(len(k.arena) - 1)
	}
	s := &k.arena[idx]
	s.fn = fn
	k.enqueue(idx, t)
	if t != Forever {
		k.runnable++
	}
	return Event{k: k, at: t, idx: idx, gen: s.gen}
}

// enqueue appends slot idx to the latest bucket opened for t, opening one if
// t has none queued. Appending only to the latest bucket keeps pop order
// exactly (at, seq): when a table collision has made At open a second bucket
// for t, every event of the first was scheduled before the second opened,
// and the seqs the two buckets opened with order them on the heap.
func (k *Kernel) enqueue(idx int32, t Time) {
	l := &k.latest[latestSlot(t)]
	if l.at != t {
		*l = latestBucket{at: t, bkt: k.openBucket(t)}
	}
	bi := l.bkt
	b := &k.buckets[bi]
	s := &k.arena[idx]
	s.bkt, s.prev, s.next = bi, b.tail, -1
	if b.tail < 0 {
		b.head = idx
	} else {
		k.arena[b.tail].next = idx
	}
	b.tail = idx
}

// latestSlot is t's entry in Kernel.latest: a Fibonacci hash, so instants
// on a lattice (multiples of one period) spread over the table.
func latestSlot(t Time) uint64 { return uint64(t) * 0x9e3779b97f4a7c15 >> (64 - latestBits) }

// openBucket takes a bucket for instant t, empty, and pushes it onto the
// heap keyed by the current seq.
func (k *Kernel) openBucket(t Time) int32 {
	var bi int32
	if n := len(k.freeBkts); n > 0 {
		bi = k.freeBkts[n-1]
		k.freeBkts = k.freeBkts[:n-1]
	} else {
		k.buckets = append(k.buckets, bucket{})
		bi = int32(len(k.buckets) - 1)
	}
	k.buckets[bi] = bucket{head: -1, tail: -1}
	k.heapPush(entry{at: t, seq: k.seq, idx: bi})
	return bi
}

// unlink removes slot idx from its bucket's FIFO. A bucket left empty
// leaves the heap and Kernel.latest, and is freed.
func (k *Kernel) unlink(idx int32) {
	s := &k.arena[idx]
	b := &k.buckets[s.bkt]
	if s.prev < 0 {
		b.head = s.next
	} else {
		k.arena[s.prev].next = s.next
	}
	if s.next < 0 {
		b.tail = s.prev
	} else {
		k.arena[s.next].prev = s.prev
	}
	if b.head < 0 {
		if l := &k.latest[latestSlot(k.queue[b.pos].at)]; l.bkt == s.bkt {
			l.at = -1
		}
		k.heapRemove(int(b.pos))
		b.pos = -1
		k.freeBkts = append(k.freeBkts, s.bkt)
	}
}

// release returns a fired or cancelled slot to the free-list, dropping its
// callback (so captured state is not retained) and bumping its generation
// (so stale handles cannot touch the recycled slot).
func (k *Kernel) release(idx int32) {
	s := &k.arena[idx]
	s.fn = nil
	s.bkt = -1
	s.gen++
	k.free = append(k.free, idx)
}

// Step runs the earliest pending event, advancing the clock to its time.
// It returns false if no runnable event remains.
func (k *Kernel) Step() bool {
	if len(k.queue) == 0 {
		return false
	}
	top := k.queue[0]
	if top.at == Forever {
		// Parked events never fire; nothing runnable remains at or before
		// any finite time.
		return false
	}
	idx := k.buckets[top.idx].head
	fn := k.arena[idx].fn
	k.now = top.at
	k.runnable--
	k.unlink(idx)
	k.release(idx)
	k.nsteps++
	fn()
	return true
}

// Run processes events until the queue drains (or only parked events
// remain) and returns the number of events processed.
func (k *Kernel) Run() int {
	n := 0
	for k.Step() {
		n++
	}
	return n
}

// RunLimited is Run with a safety budget: it stops with ErrEventLimit after
// max events. Use it in tests to turn protocol livelocks into failures
// instead of hangs.
func (k *Kernel) RunLimited(max int) (int, error) {
	for n := 0; n < max; n++ {
		if !k.Step() {
			return n, nil
		}
	}
	if k.runnable > 0 {
		return max, ErrEventLimit
	}
	return max, nil
}

// RunUntil processes events with firing time <= t, then advances the clock
// to exactly t. It returns the number of events processed.
func (k *Kernel) RunUntil(t Time) int {
	n := 0
	for {
		at, ok := k.peekRunnable()
		if !ok || at > t {
			break
		}
		k.Step()
		n++
	}
	if t > k.now {
		k.now = t
	}
	return n
}

// RunFor is RunUntil(Now()+d), saturating at Forever.
func (k *Kernel) RunFor(d Time) int { return k.RunUntil(Add(k.now, d)) }

// Pending returns the number of queued, non-cancelled, non-parked events.
// The count is maintained incrementally on schedule/fire/cancel, so this is
// O(1) — it used to scan the whole queue, which made idle-checking loops
// quadratic.
func (k *Kernel) Pending() int { return k.runnable }

// NextEventTime returns the firing time of the earliest runnable event, or
// Forever if none is queued.
func (k *Kernel) NextEventTime() Time {
	if at, ok := k.peekRunnable(); ok {
		return at
	}
	return Forever
}

// peekRunnable returns the firing time of the earliest runnable event.
// Cancelled events are removed from the queue eagerly, so the heap minimum
// is runnable unless it is parked at Forever.
func (k *Kernel) peekRunnable() (Time, bool) {
	if len(k.queue) == 0 {
		return 0, false
	}
	if at := k.queue[0].at; at != Forever {
		return at, true
	}
	return 0, false
}

// --- 4-ary min-heap of buckets, ordered by (at, seq) ---
//
// A 4-ary layout halves the tree depth of a binary heap and keeps the
// children of a node within two cache lines of the queue. The comparison
// is the total order (at, seq) — seq is unique per bucket — so pop order is
// independent of heap shape. Every move of an entry writes its new
// position into its bucket, which unlink needs; the sift itself reads only
// the queue.

func (a entry) less(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapPush appends e and restores the heap property.
func (k *Kernel) heapPush(e entry) {
	k.queue = append(k.queue, e)
	k.siftUp(len(k.queue) - 1)
}

// heapRemove removes the entry at queue position pos.
func (k *Kernel) heapRemove(pos int) {
	n := len(k.queue) - 1
	last := k.queue[n]
	k.queue = k.queue[:n]
	if pos == n {
		return
	}
	k.queue[pos] = last
	if k.siftUp(pos) == pos {
		k.siftDown(pos)
	}
}

// siftUp moves the entry at pos toward the root until its parent is not
// greater; it returns the entry's final position.
func (k *Kernel) siftUp(pos int) int {
	q := k.queue
	e := q[pos]
	for pos > 0 {
		parent := (pos - 1) / 4
		if !e.less(q[parent]) {
			break
		}
		q[pos] = q[parent]
		k.buckets[q[pos].idx].pos = int32(pos)
		pos = parent
	}
	q[pos] = e
	k.buckets[e.idx].pos = int32(pos)
	return pos
}

// siftDown moves the entry at pos toward the leaves until no child is
// smaller.
func (k *Kernel) siftDown(pos int) {
	q := k.queue
	n := len(q)
	e := q[pos]
	for {
		first := 4*pos + 1
		if first >= n {
			break
		}
		best := first
		end := min(first+4, n)
		for c := first + 1; c < end; c++ {
			if q[c].less(q[best]) {
				best = c
			}
		}
		if !q[best].less(e) {
			break
		}
		q[pos] = q[best]
		k.buckets[q[pos].idx].pos = int32(pos)
		pos = best
	}
	q[pos] = e
	k.buckets[e.idx].pos = int32(pos)
}

// RunRealtime processes events while pacing virtual time against the wall
// clock: one virtual second passes per wall second divided by speedup.
// It returns when the queue drains, or as soon as stop is closed (stop may
// be nil). Use it to watch a scenario unfold live (cmd/vinestalk), or with
// a large speedup as a drop-in Run with cancellation.
func (k *Kernel) RunRealtime(speedup float64, stop <-chan struct{}) int {
	if speedup <= 0 {
		speedup = 1
	}
	start := time.Now()
	virtualStart := k.now
	n := 0
	for {
		select {
		case <-stop:
			return n
		default:
		}
		at, ok := k.peekRunnable()
		if !ok {
			return n
		}
		// Wait until the wall clock catches up with the event's time.
		due := time.Duration(float64(at-virtualStart) / speedup)
		if sleep := due - time.Since(start); sleep > 0 {
			timer := time.NewTimer(sleep)
			select {
			case <-stop:
				timer.Stop()
				return n
			case <-timer.C:
			}
		}
		if !k.Step() {
			return n
		}
		n++
	}
}
