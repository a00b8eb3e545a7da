package cgcast

import (
	"testing"

	"vinestalk/internal/geo"
)

// Entry segments past a frame's first are pooled by size class, so what
// frames and pool keep follows how many segments of each class are in use
// at once, not how many frames have ever carried many messages. Here 16
// frames go out each round, one of them carrying 64 messages and the rest
// one each, and the large role passes to the next frame every round. Each
// frame keeps its first segment of 16 entries, and only the large frame's
// segments of 32 and 64 are in use besides, so frames and pool keep at most
// 352 entries. When each pooled frame kept the largest buffer it had held,
// the pool grew every round until every frame had carried the 64, and kept
// 940 entries. Frames and pool keep as much after the 64th round as after
// the 16th, and a round allocates nothing.
func TestEntryPoolDoesNotCreep(t *testing.T) {
	const frames, large = 16, 64
	f := setup(t, 8, 2)
	for u := 0; u < f.tiling.NumRegions(); u++ {
		f.layer.RegisterVSA(geo.RegionID(u), nopVSA{})
	}
	svc := batchedService(t, f)
	grow := kindOf(svc, "grow")
	from := f.h.Cluster(0, 0)
	r := 0
	round := func() {
		for i := 0; i < frames; i++ {
			to := f.h.Cluster(geo.RegionID(1+i), 0)
			n := 1
			if i == r%frames {
				n = large
			}
			for obj := 0; obj < n; obj++ {
				if err := svc.ClusterToClusterIndexed(f.h.Head(from), from, to, grow, &Body{Obj: int32(obj)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		r++
		f.k.Run()
	}
	pooled := func() (entries int) {
		for _, class := range svc.segs {
			for _, seg := range class {
				entries += cap(seg)
			}
		}
		for _, fr := range svc.free {
			for _, seg := range fr.segs {
				entries += cap(seg)
			}
		}
		return entries
	}
	for r < frames {
		round()
	}
	rotated := pooled()
	if bound := frames*16 + 32 + large; rotated > bound {
		t.Errorf("the pool keeps %d entries once every frame has carried %d messages, want at most %d", rotated, large, bound)
	}
	for r < 4*frames {
		round()
	}
	if late := pooled(); late != rotated {
		t.Errorf("the pool keeps %d entries after round %d, %d after round %d", late, r, rotated, frames)
	}
	if allocs := testing.AllocsPerRun(16, round); allocs != 0 {
		t.Errorf("a round allocated %.1f times, want 0", allocs)
	}
	if got, want := f.ledger.Delivered("proto/grow"), f.ledger.Messages("proto/grow"); got != want {
		t.Errorf("%d of %d messages delivered", got, want)
	}
}
