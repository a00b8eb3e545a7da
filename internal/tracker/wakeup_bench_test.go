package tracker

import (
	"runtime"
	"testing"

	"vinestalk/internal/sim"
)

// BenchmarkWakeup prices one timer wakeup end to end on the oracle host:
// armed through Process.setTimer on a row of a process holding 4 096 rows,
// then fired by the kernel into Automaton.TimerFire, which validates it
// against the row and runs the variable's expiry action. Wakeups are armed
// 256 at a time over three instants, as C-gcast's lattice of delivery times
// spreads them. The timer is the §VII lease, which is inert without
// heartbeats, so the action itself costs almost nothing; each row holds a
// child pointer, so no fire evicts it. One op is one wakeup.
func BenchmarkWakeup(b *testing.B) {
	const rows, batch = 4096, 256
	f := newFixture(b, fixtureConfig{side: 4, start: 5, alwaysUp: true})
	f.settle()
	pr := f.net.Automaton().regions[0].byLevel[0]
	for i := 0; i < rows; i++ {
		pr.objs.insert(objState{obj: ObjectID(1000 + i), c: hoodSelf})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := min(batch, b.N-done)
		for j := 0; j < n; j++ {
			st := pr.objs.get(ObjectID(1000 + (done+j)%rows))
			pr.setTimer(st, timerLease, f.k.Now()+sim.Time(1+j%3))
		}
		if fired := f.k.Run(); fired != n {
			b.Fatalf("%d wakeups armed, %d events ran", n, fired)
		}
		done += n
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/wakeup")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/wakeup")
}
