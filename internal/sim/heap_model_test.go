package sim

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// modelEvent is one queued event of the reference model: its firing time,
// its scheduling order and the name the test gave it.
type modelEvent struct {
	at  Time
	ord int
	id  int
}

// checkHeap checks the queue's shape: no entry is less than its parent, and
// every entry's arena slot points back at its position.
func checkHeap(t *testing.T, op int, k *Kernel) {
	t.Helper()
	for pos, e := range k.queue {
		if pos > 0 && e.less(k.queue[(pos-1)/4]) {
			t.Fatalf("op %d: entry %d (%v, %d) is less than its parent", op, pos, e.at, e.seq)
		}
		if got := k.arena[e.idx].pos; int(got) != pos {
			t.Fatalf("op %d: entry %d names slot %d, whose position is %d", op, pos, e.idx, got)
		}
	}
}

// TestKernelMatchesSortedReference runs a random history of schedules (many
// at the same instant), parked events, cancels of live and stale handles,
// steps, and events that schedule more events when they fire, against a
// model that keeps the queued events in a slice and fires the least by
// (at, scheduling order). Every fired event must be the model's, and after
// every operation the heap's shape, its slot back-pointers, its length and
// Pending must agree with the model.
func TestKernelMatchesSortedReference(t *testing.T) {
	k := New(1)
	rng := rand.New(rand.NewSource(3))
	var model []modelEvent
	handles := map[int]Event{} // by id; stale ones are kept to be cancelled
	ord, nextID, fired := 0, 0, -1
	var schedule func(at Time)
	schedule = func(at Time) {
		id := nextID
		nextID++
		if at < k.Now() {
			at = k.Now()
		}
		handles[id] = k.At(at, func() {
			fired = id
			if rng.Intn(4) == 0 { // a child at the same instant or later
				schedule(k.Now() + Time(rng.Intn(3))*time.Millisecond)
			}
		})
		model = append(model, modelEvent{at: at, ord: ord, id: id})
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
	for op := 0; op < 20_000; op++ {
		switch r := rng.Intn(10); {
		case r < 4:
			schedule(k.Now() + Time(rng.Intn(20))*time.Millisecond)
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
		checkHeap(t, op, k)
		runnable := 0
		for _, m := range model {
			if m.at != Forever {
				runnable++
			}
		}
		if len(k.queue) != len(model) || k.Pending() != runnable {
			t.Fatalf("op %d: %d queued (%d pending), the model holds %d (%d runnable)", op, len(k.queue), k.Pending(), len(model), runnable)
		}
	}
}
