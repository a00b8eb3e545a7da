package prefetch

import (
	"testing"
	"unsafe"
)

// A prefetch reads and writes nothing and allocates nothing, wherever in a
// live array it points.
func TestLineChangesNothing(t *testing.T) {
	rows := make([]uint64, 1<<12)
	for i := range rows {
		rows[i] = uint64(i)
	}
	allocs := testing.AllocsPerRun(10, func() {
		for i := range rows {
			Line(unsafe.Pointer(&rows[i]))
		}
	})
	if allocs != 0 {
		t.Errorf("a pass of prefetches allocated %.1f times, want 0", allocs)
	}
	for i, v := range rows {
		if v != uint64(i) {
			t.Fatalf("rows[%d] = %d after the prefetches, want %d", i, v, i)
		}
	}
}
