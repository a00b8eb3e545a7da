package nethost

import (
	"container/heap"
	"math/rand"
	"sort"
	"testing"
	"time"
	"unsafe"

	"vinestalk/internal/sim"
)

// refQueue is the queue the service kept before holdQueue: a container/heap
// of *heldEntry. It stays here as the reference model and the benchmark's
// baseline.
type refQueue []*heldEntry

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].before(q[j]) }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(*heldEntry)) }
func (q *refQueue) Pop() any {
	last := len(*q) - 1
	e := (*q)[last]
	(*q)[last] = nil
	*q = (*q)[:last]
	return e
}

// TestHoldQueueMatchesSortedReference runs 30 000 random pushes and pops,
// most of them due at one of 16 instants so that ties are the rule, and
// checks every pop against a slice kept sorted by (due, seq) and against the
// reference pointer heap: the same entry, with its payload, and the same
// length after every step.
func TestHoldQueueMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var q holdQueue
	var ref refQueue
	var model []heldEntry
	var seq uint64
	for op := 0; op < 30_000; op++ {
		if len(model) == 0 || rng.Intn(5) < 3 {
			due := sim.Time(rng.Intn(16)) * time.Millisecond
			if rng.Intn(10) == 0 {
				due = sim.Time(rng.Int63n(int64(time.Hour)))
			}
			e := heldEntry{due: due, seq: seq, to: int32(rng.Intn(64)), arg: uint64(op), payload: []byte{byte(op)}}
			seq++
			q.push(e)
			heap.Push(&ref, &e)
			i := sort.Search(len(model), func(i int) bool { return e.before(&model[i]) })
			model = append(model, heldEntry{})
			copy(model[i+1:], model[i:])
			model[i] = e
		} else {
			got, want := q.pop(), model[0]
			model = model[1:]
			if r := heap.Pop(&ref).(*heldEntry); r.seq != want.seq {
				t.Fatalf("op %d: reference heap popped seq %d, sorted model %d", op, r.seq, want.seq)
			}
			if got.due != want.due || got.seq != want.seq || got.to != want.to || got.arg != want.arg ||
				len(got.payload) != 1 || got.payload[0] != want.payload[0] {
				t.Fatalf("op %d: popped (due %v, seq %d), want (due %v, seq %d)", op, got.due, got.seq, want.due, want.seq)
			}
		}
		if len(q) != len(model) {
			t.Fatalf("op %d: queue holds %d entries, model %d", op, len(q), len(model))
		}
	}
	for len(model) > 0 {
		if got := q.pop(); got.seq != model[0].seq {
			t.Fatalf("drain: popped seq %d, want %d", got.seq, model[0].seq)
		}
		model = model[1:]
	}
}

// TestHoldQueuePopClearsTheSlot: the slot a pop vacates keeps neither the
// closure nor the payload, so a drained queue pins nothing for the GC.
func TestHoldQueuePopClearsTheSlot(t *testing.T) {
	var q holdQueue
	for i := 0; i < 9; i++ {
		q.push(heldEntry{due: sim.Time(i), seq: uint64(i), fire: func() {}, payload: []byte{1}})
	}
	for len(q) > 0 {
		q.pop()
	}
	for i, e := range q[:cap(q)] {
		if e.fire != nil || e.payload != nil {
			t.Fatalf("vacated slot %d still holds its closure or payload", i)
		}
	}
}

// TestHoldQueueAllocatesNothing: at a steady depth of 3 000 entries — the
// depth daemon8's saturated phase holds — one push and one pop allocate
// nothing.
func TestHoldQueueAllocatesNothing(t *testing.T) {
	q, next := filledHoldQueue(3000)
	allocs := testing.AllocsPerRun(10_000, func() {
		q.push(next())
		q.pop()
	})
	if allocs != 0 {
		t.Fatalf("push+pop at depth 3 000 allocates %.2f times, want 0", allocs)
	}
}

// TestHeldEntryFits pins the entry at 64 bytes: the value heap moves whole
// entries, so a field that grows it costs every sift.
func TestHeldEntryFits(t *testing.T) {
	if size := unsafe.Sizeof(heldEntry{}); size != 64 {
		t.Fatalf("heldEntry is %d bytes, want 64", size)
	}
}

// filledHoldQueue returns a queue of depth entries and a generator of
// further ones, due at a frame's spread of 0–60 ms past a clock that
// advances by the generator's calls, with the sequence numbers running on.
func filledHoldQueue(depth int) (*holdQueue, func() heldEntry) {
	rng := rand.New(rand.NewSource(1))
	var seq uint64
	var now sim.Time
	next := func() heldEntry {
		seq++
		now += 20 * time.Microsecond
		return heldEntry{due: now + sim.Time(rng.Intn(60))*time.Millisecond, seq: seq}
	}
	q := make(holdQueue, 0, depth+1)
	for i := 0; i < depth; i++ {
		q.push(next())
	}
	return &q, next
}

// BenchmarkHoldQueue prices one push and one pop at a steady depth of 3 000
// entries: the value heap the service uses against the reference pointer
// heap it replaced.
func BenchmarkHoldQueue(b *testing.B) {
	const depth = 3000
	b.Run("value", func(b *testing.B) {
		q, next := filledHoldQueue(depth)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.push(next())
			q.pop()
		}
	})
	b.Run("reference", func(b *testing.B) {
		src, next := filledHoldQueue(depth)
		q := make(refQueue, 0, depth+1)
		for _, e := range *src {
			e := e
			heap.Push(&q, &e)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := next()
			heap.Push(&q, &e)
			heap.Pop(&q)
		}
	})
}

// TestHoldQueueGivesBackItsSliceAfterABurst: a queue that held 20 000
// entries and drained to 100 keeps at most holdQueueMinCap slots, and still
// pops in order.
func TestHoldQueueGivesBackItsSliceAfterABurst(t *testing.T) {
	var q holdQueue
	for i := 0; i < 20_000; i++ {
		q.push(heldEntry{due: sim.Time(i % 97), seq: uint64(i)})
	}
	prev := q.pop()
	for len(q) > 100 {
		e := q.pop()
		if e.before(&prev) {
			t.Fatalf("popped (due %v, seq %d) after (due %v, seq %d)", e.due, e.seq, prev.due, prev.seq)
		}
		prev = e
	}
	if c := cap(q); c > holdQueueMinCap {
		t.Fatalf("queue drained to %d entries keeps %d slots, want at most %d", len(q), c, holdQueueMinCap)
	}
}
