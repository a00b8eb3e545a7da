package sim

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// modelEvent is one queued event of the reference model: its firing time,
// its scheduling order, the name the test gave it and its arena slot.
type modelEvent struct {
	at   Time
	ord  int
	id   int
	slot int32
}

// queued counts the events in the kernel's queued buckets, and those of
// them with a finite firing time.
func queued(k *Kernel) (events, runnable int) {
	for _, e := range k.queue {
		n := 0
		for s := k.buckets[e.idx].head; s >= 0; s = k.arena[s].next {
			n++
		}
		events += n
		if e.at != Forever {
			runnable += n
		}
	}
	return events, runnable
}

// instant is what queueCheck gathers about one instant's buckets.
type instant struct {
	latestSeq  uint64 // opening seq of the latest bucket
	latestBkt  int32
	latestLast int // ord of the latest bucket's newest event
	olderLast  int // ord of the newest event in an older bucket, or -1
}

// queueCheck holds the buffers of check: slot → 1 + its event's index in
// the model, and the instants of the queued buckets.
type queueCheck struct {
	inModel  []int
	instants map[Time]*instant
}

// check checks the bucketed queue against the model, whose events were
// all scheduled through At in order, so an event's kernel seq is its ord+1:
//   - no heap entry is less than its parent, and every entry's bucket
//     points back at its position;
//   - every queued bucket is non-empty, its FIFO links agree both ways, and
//     it holds events of its own instant in scheduling order, none
//     scheduled before the bucket opened;
//   - every event of an instant's older buckets was scheduled before its
//     latest bucket opened, and the latest-table names no bucket but the
//     latest of its instant, so only the latest receives events (checked
//     after every operation, this orders every pair of buckets of one
//     instant by induction);
//   - the queued events are exactly the model's.
//
// It reports whether some instant had two or more buckets. The checker's
// buffers are kept across calls, so a long history allocates little.
func (c *queueCheck) check(t *testing.T, op int, k *Kernel, model []modelEvent) (split bool) {
	t.Helper()
	inModel := slices.Grow(c.inModel[:0], len(k.arena))[:len(k.arena)]
	clear(inModel)
	c.inModel = inModel
	for i, m := range model {
		inModel[m.slot] = i + 1
	}
	if c.instants == nil {
		c.instants = map[Time]*instant{}
	}
	instants := c.instants
	clear(instants)
	events := 0
	for pos, e := range k.queue {
		if pos > 0 && e.less(k.queue[(pos-1)/4]) {
			t.Fatalf("op %d: entry %d (%v, %d) is less than its parent", op, pos, e.at, e.seq)
		}
		b := k.buckets[e.idx]
		if int(b.pos) != pos {
			t.Fatalf("op %d: entry %d (%v) names bucket %d, at position %d", op, pos, e.at, e.idx, b.pos)
		}
		if b.head < 0 {
			t.Fatalf("op %d: queued bucket %d (%v) is empty", op, e.idx, e.at)
		}
		last := -1
		prev := int32(-1)
		for s := b.head; s >= 0; prev, s = s, k.arena[s].next {
			sl := k.arena[s]
			i := inModel[s] - 1
			if i < 0 || model[i].at != e.at {
				t.Fatalf("op %d: bucket %d (%v) holds slot %d, which the model does not queue at %v", op, e.idx, e.at, s, e.at)
			}
			inModel[s] = 0 // a slot seen twice is not the model's
			ord := model[i].ord
			switch {
			case sl.bkt != e.idx || sl.prev != prev:
				t.Fatalf("op %d: slot %d in bucket %d names bucket %d, prev %d (want %d)", op, s, e.idx, sl.bkt, sl.prev, prev)
			case uint64(ord+1) < e.seq:
				t.Fatalf("op %d: bucket %d opened at seq %d holds seq %d", op, e.idx, e.seq, ord+1)
			case ord <= last:
				t.Fatalf("op %d: bucket %d (%v) holds ord %d after ord %d", op, e.idx, e.at, ord, last)
			}
			last = ord
			events++
		}
		if b.tail != prev {
			t.Fatalf("op %d: bucket %d ends at slot %d, its tail is %d", op, e.idx, prev, b.tail)
		}
		in := instants[e.at]
		switch {
		case in == nil:
			instants[e.at] = &instant{latestSeq: e.seq, latestBkt: e.idx, latestLast: last, olderLast: -1}
		case e.seq > in.latestSeq:
			split = true
			in.olderLast = max(in.olderLast, in.latestLast)
			in.latestSeq, in.latestBkt, in.latestLast = e.seq, e.idx, last
		default:
			split = true
			in.olderLast = max(in.olderLast, last)
		}
	}
	if events != len(model) {
		t.Fatalf("op %d: %d events queued, the model holds %d", op, events, len(model))
	}
	for at, in := range instants {
		if uint64(in.olderLast+1) >= in.latestSeq {
			t.Fatalf("op %d: instant %v: an older bucket holds seq %d, scheduled after bucket %d opened at seq %d",
				op, at, in.olderLast+1, in.latestBkt, in.latestSeq)
		}
	}
	for h, l := range k.latest {
		if l.at < 0 {
			continue
		}
		if in := instants[l.at]; in == nil || l.bkt != in.latestBkt || latestSlot(l.at) != uint64(h) {
			t.Fatalf("op %d: latest-table entry %d names bucket %d for %v, which is not its instant's latest queued bucket", op, h, l.bkt, l.at)
		}
	}
	return split
}

// TestKernelMatchesSortedReference runs random histories of schedules (many
// at the same instant), parked events, cancels of live and stale handles,
// steps, and events that schedule more events when they fire, against a
// model that keeps the queued events in a slice and fires the least by
// (at, scheduling order). Every fired event must be the model's, and after
// every operation the queue's shape (queueCheck) and Pending must agree
// with the model. The second history spreads its events over eight times
// as many instants as the latest-table has entries, so collisions give
// instants a second bucket, which must drain after the first.
func TestKernelMatchesSortedReference(t *testing.T) {
	for _, h := range []struct {
		name     string
		seed     int64
		instants int // delays are 0 … instants-1 ms
		ops      int
	}{
		{"ties", 3, 20, 20_000},
		{"more-instants-than-table", 4, 8 << latestBits, 10_000},
	} {
		t.Run(h.name, func(t *testing.T) {
			splits := runSortedReference(t, h.seed, h.instants, h.ops)
			if h.instants > 1<<latestBits && splits == 0 {
				t.Fatalf("no instant ever had a second bucket")
			}
		})
	}
}

// runSortedReference runs one history of ops operations and returns the
// number of them after which some instant had two or more buckets.
func runSortedReference(t *testing.T, seed int64, instants, ops int) (splits int) {
	t.Helper()
	k := New(1)
	rng := rand.New(rand.NewSource(seed))
	var model []modelEvent
	handles := map[int]Event{} // by id; stale ones are kept to be cancelled
	ord, nextID, fired := 0, 0, -1
	var qc queueCheck
	var schedule func(at Time)
	schedule = func(at Time) {
		id := nextID
		nextID++
		if at < k.Now() {
			at = k.Now()
		}
		ev := k.At(at, func() {
			fired = id
			if rng.Intn(4) == 0 { // a child at the same instant or later
				schedule(k.Now() + Time(rng.Intn(3))*time.Millisecond)
			}
		})
		handles[id] = ev
		model = append(model, modelEvent{at: at, ord: ord, id: id, slot: ev.idx})
		ord++
	}
	least := func() int {
		best := -1
		for i, m := range model {
			if m.at != Forever && (best < 0 || m.at < model[best].at || m.at == model[best].at && m.ord < model[best].ord) {
				best = i
			}
		}
		return best
	}
	for op := 0; op < ops; op++ {
		switch r := rng.Intn(10); {
		case r < 4:
			schedule(k.Now() + Time(rng.Intn(instants))*time.Millisecond)
		case r == 4:
			schedule(Forever)
		case r < 7 && nextID > 0:
			id := rng.Intn(nextID)
			handles[id].Cancel()
			model = slices.DeleteFunc(model, func(m modelEvent) bool { return m.id == id })
		default:
			want := least()
			fired = -1
			stepped := k.Step()
			if want < 0 {
				if stepped {
					t.Fatalf("op %d: Step fired event %d, the model has nothing runnable", op, fired)
				}
				break
			}
			m := model[want]
			model = slices.Delete(model, want, want+1)
			if !stepped || fired != m.id || k.Now() != m.at {
				t.Fatalf("op %d: Step fired %d at %v (stepped %v), the model's least is %d at %v", op, fired, k.Now(), stepped, m.id, m.at)
			}
		}
		if qc.check(t, op, k, model) {
			splits++
		}
		runnable := 0
		for _, m := range model {
			if m.at != Forever {
				runnable++
			}
		}
		if k.Pending() != runnable {
			t.Fatalf("op %d: %d pending, the model holds %d runnable", op, k.Pending(), runnable)
		}
	}
	return splits
}
