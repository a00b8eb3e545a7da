package sim

import (
	"testing"
	"time"
)

// checkBounded fails unless the kernel queues exactly events events and has
// never held more than slots arena slots or buckets buckets at once.
func checkBounded(t *testing.T, k *Kernel, events, slots, buckets int) {
	t.Helper()
	if got, _ := queued(k); got != events {
		t.Fatalf("queue holds %d events, want %d", got, events)
	}
	if len(k.arena) > slots || len(k.buckets) > buckets {
		t.Fatalf("kernel holds %d slots and %d buckets, want at most %d and %d", len(k.arena), len(k.buckets), slots, buckets)
	}
}

// TestCancelRemovesFromHeap is the regression test for the tombstone leak:
// cancelled events used to stay queued until their firing time popped them,
// so a schedule/cancel loop (exactly what a repeatedly reset lease timer
// does) grew the heap without bound and made Pending O(queue).
func TestCancelRemovesFromHeap(t *testing.T) {
	k := New(1)
	const rounds = 10_000
	for i := 0; i < rounds; i++ {
		ev := k.Schedule(time.Duration(i+1)*time.Hour, func() {
			t.Error("cancelled event fired")
		})
		ev.Cancel()
		checkBounded(t, k, 0, 1, 1)
	}
	if len(k.queue) != 0 {
		t.Fatalf("heap holds %d buckets after %d schedule/cancel rounds, want 0", len(k.queue), rounds)
	}
	if k.Pending() != 0 {
		t.Errorf("Pending = %d, want 0", k.Pending())
	}
}

// TestTimerResetLoopBoundedHeap exercises the leak through the Timer API
// the tracker actually uses: Clear/SetAfter cycles must not accumulate
// tombstones, and the surviving deadline must still fire.
func TestTimerResetLoopBoundedHeap(t *testing.T) {
	k := New(1)
	fired := 0
	tm := NewTimer(k, func() { fired++ })
	for i := 0; i < 5_000; i++ {
		tm.SetAfter(time.Duration(i+1) * time.Minute)
		tm.Clear()
		tm.SetAfter(10 * time.Millisecond)
	}
	checkBounded(t, k, 1, 2, 2) // the live deadline
	k.Run()
	if fired != 1 {
		t.Errorf("timer fired %d times, want 1", fired)
	}
	checkBounded(t, k, 0, 2, 2)
}

// TestCancelParkedEvent: events parked at Forever used to be unreclaimable
// (they never pop); remove-on-cancel must free them too.
func TestCancelParkedEvent(t *testing.T) {
	k := New(1)
	ev := k.At(Forever, func() { t.Error("parked event fired") })
	checkBounded(t, k, 1, 1, 1)
	ev.Cancel()
	checkBounded(t, k, 0, 1, 1)
}

// TestCancelMiddleOfHeapPreservesOrder removes an interior event and checks
// the remaining events still fire in time order.
func TestCancelMiddleOfHeapPreservesOrder(t *testing.T) {
	k := New(1)
	var got []int
	evs := make([]Event, 10)
	for i := 0; i < 10; i++ {
		i := i
		evs[i] = k.Schedule(time.Duration(i+1)*time.Second, func() {
			got = append(got, i)
		})
	}
	evs[3].Cancel()
	evs[7].Cancel()
	evs[3].Cancel() // double cancel is a no-op
	checkBounded(t, k, 8, 10, 10)
	k.Run()
	want := []int{0, 1, 2, 4, 5, 6, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// TestCancelAlreadyFiredEventNoop: cancelling after the event ran must not
// disturb the queue.
func TestCancelAlreadyFiredEventNoop(t *testing.T) {
	k := New(1)
	ev := k.Schedule(time.Millisecond, func() {})
	k.Schedule(time.Second, func() {})
	k.Step()
	ev.Cancel()
	checkBounded(t, k, 1, 2, 2)
}
