package vinestalk_test

import (
	"testing"

	"vinestalk"
	"vinestalk/internal/geo"
	"vinestalk/internal/hier"
	"vinestalk/internal/lookahead"
)

// Checker cost: no benchmark/ workload runs the specification or the
// lookAhead check inside a timed window, so these two stay as plain
// `go test -bench`.

// BenchmarkAtomicMoveSpec measures the §IV-C atomic specification alone.
func BenchmarkAtomicMoveSpec(b *testing.B) {
	h := hier.MustGrid(geo.MustGridTiling(16, 16), 2)
	s := lookahead.Init(h, 0)
	cur := geo.RegionID(0)
	tl := h.Tiling()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nbrs := tl.Neighbors(cur)
		next := nbrs[i%len(nbrs)]
		out, err := lookahead.AtomicMove(s, cur, next)
		if err != nil {
			b.Fatal(err)
		}
		s, cur = out, next
	}
}

// BenchmarkLookAheadChecker measures capturing + lookAhead + equality on a
// quiescent 16x16 network.
func BenchmarkLookAheadChecker(b *testing.B) {
	svc, err := vinestalk.New(vinestalk.Config{Width: 16, AlwaysAliveVSAs: true})
	if err != nil {
		b.Fatal(err)
	}
	if err := svc.Settle(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := svc.CheckTheorem48(); err != nil {
			b.Fatal(err)
		}
	}
}
