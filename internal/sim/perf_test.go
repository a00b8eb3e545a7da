package sim

import (
	"math/rand"
	"testing"
	"time"
)

// --- Satellite: Pending() is O(1) via a maintained runnable counter. The
// counter must agree with a brute-force scan of the queue at every point of
// a randomized schedule/cancel/step/park history. ---

// bruteForcePending recounts what Pending maintains incrementally: queued
// events with a finite firing time (cancelled events are unlinked from
// their bucket eagerly, so walking the queued buckets is exhaustive).
func bruteForcePending(k *Kernel) int {
	_, runnable := queued(k)
	return runnable
}

func TestPendingMatchesBruteForceScan(t *testing.T) {
	k := New(7)
	rng := rand.New(rand.NewSource(11))
	nop := func() {}
	var live []Event // includes handles gone stale after their event fired
	for i := 0; i < 5000; i++ {
		switch rng.Intn(5) {
		case 0, 1:
			live = append(live, k.Schedule(Time(rng.Intn(1000))*time.Microsecond, nop))
		case 2:
			if len(live) > 0 {
				j := rng.Intn(len(live))
				live[j].Cancel() // may be stale (already fired): must be a no-op
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		case 3:
			k.Step()
		case 4:
			live = append(live, k.At(Forever, nop)) // parked: never runnable
		}
		if got, want := k.Pending(), bruteForcePending(k); got != want {
			t.Fatalf("op %d: Pending() = %d, brute-force scan = %d", i, got, want)
		}
	}
	k.Run()
	if got, want := k.Pending(), bruteForcePending(k); got != 0 || want != 0 {
		t.Fatalf("after drain: Pending() = %d, brute-force scan = %d, want 0", got, want)
	}
}

// --- Tentpole regression: steady-state Schedule/Cancel/Step allocate
// nothing. The arena, free-list, and heap are warmed first; after that the
// kernel must run entirely on recycled slots. ---

func TestScheduleCancelStepZeroAllocSteadyState(t *testing.T) {
	k := New(1)
	nop := func() {}
	// Warm the arena, free-list, and heap to their steady-state capacity.
	warm := make([]Event, 512)
	for i := range warm {
		warm[i] = k.Schedule(Time(i+1)*time.Millisecond, nop)
	}
	for _, e := range warm {
		e.Cancel()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		fires := k.Schedule(time.Millisecond, nop)
		doomed := k.Schedule(2*time.Millisecond, nop)
		doomed.Cancel()
		k.Step() // fires the first event, advancing the clock
		_ = fires
	})
	if allocs != 0 {
		t.Errorf("steady-state Schedule+Cancel+Step allocates %.1f objects/op, want 0", allocs)
	}
}

// Timer resets ride the same path (the tracker's hottest churn pattern):
// after construction, Set/SetAfter/Clear cycles must not allocate either.
func TestTimerResetZeroAllocSteadyState(t *testing.T) {
	k := New(1)
	tm := NewTimer(k, func() {})
	tm.SetAfter(time.Second) // warm the slot
	tm.Clear()
	allocs := testing.AllocsPerRun(1000, func() {
		tm.SetAfter(time.Second)
		tm.SetAfter(2 * time.Second) // supersede
		tm.Clear()
	})
	if allocs != 0 {
		t.Errorf("steady-state timer reset allocates %.1f objects/op, want 0", allocs)
	}
}

// The kernel orders by (at, seq) regardless of queue layout; a randomized
// schedule must drain in exact nondecreasing (at, seq) order. This pins the
// byte-identity claim at the kernel level: any stable queue implementation
// yields this exact order.
func TestKernelDrainOrderTotal(t *testing.T) {
	k := New(3)
	rng := rand.New(rand.NewSource(5))
	type fired struct {
		at  Time
		ord int
	}
	var got []fired
	n := 0
	for i := 0; i < 2000; i++ {
		at := Time(rng.Intn(50)) * time.Millisecond
		ord := n
		n++
		k.Schedule(at, func() { got = append(got, fired{at: k.Now(), ord: ord}) })
	}
	k.Run()
	if len(got) != n {
		t.Fatalf("fired %d events, want %d", len(got), n)
	}
	for i := 1; i < len(got); i++ {
		if got[i].at < got[i-1].at {
			t.Fatalf("event %d fired at %v after %v", i, got[i].at, got[i-1].at)
		}
		if got[i].at == got[i-1].at && got[i].ord < got[i-1].ord {
			t.Fatalf("simultaneous events fired out of scheduling order: %d before %d",
				got[i-1].ord, got[i].ord)
		}
	}
}
