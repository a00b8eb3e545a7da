package sim

import (
	"math/rand"
	"testing"
	"time"
)

// BenchmarkKernel prices one event (one Step plus the At that replaces the
// fired event) with 8 192 events pending, in the two shapes a queue sees:
//
//   - fanout: C-gcast's fixed delivery schedule, where every delay is a
//     multiple of one period, so the pending events share 3 instants;
//   - distinct: seeded random delays, so nearly every event has an instant
//     of its own (chaos runs).
//
// One op is one event, so ns/op is ns/event.
func BenchmarkKernel(b *testing.B) {
	const pending = 8192
	b.Run("fanout", func(b *testing.B) {
		const period = 10 * time.Millisecond
		k := New(1)
		var refire func()
		refire = func() { k.Schedule(3*period, refire) }
		for i := 0; i < pending; i++ {
			k.Schedule(Time(1+i%3)*period, refire)
		}
		runKernelBench(b, k)
	})
	b.Run("distinct", func(b *testing.B) {
		k := New(1)
		rng := rand.New(rand.NewSource(1))
		delays := make([]Time, 4096)
		for i := range delays {
			delays[i] = Time(1 + rng.Int63n(int64(time.Second)))
		}
		next := 0
		var refire func()
		refire = func() {
			k.Schedule(delays[next], refire)
			next = (next + 1) % len(delays)
		}
		for i := 0; i < pending; i++ {
			refire()
		}
		runKernelBench(b, k)
	})
}

// runKernelBench steps k b.N times; every event re-schedules itself, so the
// queue keeps its size.
func runKernelBench(b *testing.B, k *Kernel) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !k.Step() {
			b.Fatal("queue drained")
		}
	}
}
