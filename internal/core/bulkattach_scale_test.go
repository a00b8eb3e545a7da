package core_test

import (
	"bytes"
	"testing"
	"time"

	"vinestalk/internal/core"
	"vinestalk/internal/geo"
	"vinestalk/internal/lookahead"
	"vinestalk/internal/tracker"
)

// scaleService builds the 16x16 batched service every scale test uses.
func scaleService(t *testing.T) *core.Service {
	t.Helper()
	svc, err := core.New(core.Config{
		Width:           16,
		AlwaysAliveVSAs: true,
		Start:           geo.RegionID(136),
		Seed:            11,
		BatchCgcast:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// scatterPlacements spreads k-1 objects over every region of the grid.
func scatterPlacements(k, regions int) []core.ObjectPlacement {
	placements := make([]core.ObjectPlacement, 0, k-1)
	for obj := tracker.ObjectID(1); int(obj) < k; obj++ {
		placements = append(placements, core.ObjectPlacement{
			Obj:   obj,
			Start: geo.RegionID((int(obj) * 37) % regions),
		})
	}
	return placements
}

// TestBulkAttachScaleSmoke is the reduced E13 that `make race` runs under
// the race detector: a 10^5-object bulk attach, sampled
// Theorem 4.8 checks over the population, and a concurrent move+find
// round. Skipped under -short — the full go test ./... tier stays
// fast.
func TestBulkAttachScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("bulk-attach scale smoke skipped in -short mode")
	}
	const k = 100_000
	svc := scaleService(t)
	regions := svc.Tiling().NumRegions()

	start := time.Now()
	evaders, err := svc.AddObjects(scatterPlacements(k, regions))
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Settle(); err != nil {
		t.Fatal(err)
	}
	t.Logf("attached %d objects in %.2fs", k, time.Since(start).Seconds())

	// Sampled Theorem 4.8: spliced objects' state vectors look-ahead to the
	// atomic spec of their (one-region, not yet moved) paths.
	for obj := tracker.ObjectID(1); int(obj) < k; obj += k / 32 {
		want, err := lookahead.AtomicMoveSeq(svc.Hierarchy(), []geo.RegionID{evaders[obj].Region()})
		if err != nil {
			t.Fatal(err)
		}
		got := lookahead.LookAhead(lookahead.CaptureObject(svc.Network(), obj))
		if diff := lookahead.Equal(got, want); diff != "" {
			t.Fatalf("object %d violates Theorem 4.8 after bulk attach: %s", obj, diff)
		}
	}

	// One concurrent move + find round over a sample.
	sample := []tracker.ObjectID{1, 101, 10_001, 50_001, 99_999}
	for _, obj := range sample {
		ev := evaders[obj]
		if err := ev.MoveTo(svc.Tiling().Neighbors(ev.Region())[0]); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Settle(); err != nil {
		t.Fatal(err)
	}
	ids := make(map[tracker.FindID]tracker.ObjectID, len(sample))
	for _, obj := range sample {
		id, err := svc.FindObject(geo.RegionID(0), obj)
		if err != nil {
			t.Fatal(err)
		}
		ids[id] = obj
	}
	if err := svc.Settle(); err != nil {
		t.Fatal(err)
	}
	ok := 0
	for _, r := range svc.Founds() {
		if obj, found := ids[r.ID]; found && r.FoundAt == evaders[obj].Region() {
			ok++
		}
	}
	if ok != len(sample) {
		t.Fatalf("%d/%d concurrent finds object-accurate", ok, len(sample))
	}
}

// TestBulkAttachMatchesSequentialService proves the byte-identity at the
// service layer (the tracker-level property tests prove it per hierarchy):
// AddObjects ≡ k AddObject calls, region for region, at 10^3 objects.
func TestBulkAttachMatchesSequentialService(t *testing.T) {
	const k = 1000
	seq := scaleService(t)
	regions := seq.Tiling().NumRegions()
	placements := scatterPlacements(k, regions)
	for _, p := range placements {
		if _, err := seq.AddObject(p.Obj, p.Start); err != nil {
			t.Fatal(err)
		}
	}
	if err := seq.Settle(); err != nil {
		t.Fatal(err)
	}
	seqEnc := make([][]byte, regions)
	for u := 0; u < regions; u++ {
		seqEnc[u] = seq.Network().Automaton().EncodeRegion(geo.RegionID(u))
	}

	bulk := scaleService(t)
	added, err := bulk.AddObjects(placements)
	if err != nil {
		t.Fatal(err)
	}
	if len(added) != k-1 {
		t.Fatalf("AddObjects returned %d evaders, want %d", len(added), k-1)
	}
	if err := bulk.Settle(); err != nil {
		t.Fatal(err)
	}
	diff := 0
	for u := 0; u < regions; u++ {
		if !bytes.Equal(bulk.Network().Automaton().EncodeRegion(geo.RegionID(u)), seqEnc[u]) {
			diff++
		}
	}
	if diff > 0 {
		t.Errorf("%d/%d region encodings differ from sequential attach", diff, regions)
	}
}
