package tracker

import (
	"testing"

	"vinestalk/internal/geo"
	"vinestalk/internal/trace"
)

// A find operation's events share one trace op id, correlating the whole
// operation client → leaf → up-phase → down-phase → found.
func TestFindSpanCorrelatesOperation(t *testing.T) {
	tr := trace.New(4096)
	f := newFixture(t, fixtureConfig{side: 8, start: 0, alwaysUp: true,
		netOptions: []Option{WithTracer(tr)}})
	f.settle()

	corner := f.tiling.RegionAt(7, 7)
	id, err := f.net.Find(corner)
	if err != nil {
		t.Fatal(err)
	}
	f.settle()
	if len(f.founds) != 1 || f.founds[0].ID != id {
		t.Fatalf("founds = %v", f.founds)
	}

	span := tr.Span(trace.OpFind(int64(id)))
	if len(span) < 3 {
		t.Fatalf("span has %d events, want at least client send + recv chain + found:\n%v", len(span), span)
	}
	// The span starts with the client's find input and ends with the found
	// output at the evader's region.
	first, last := span[0], span[len(span)-1]
	if first.Kind != "send" || first.Msg != KindFind || first.From != -1 {
		t.Errorf("span starts with %+v, want the client's find send", first)
	}
	if geo.RegionID(first.Region) != corner {
		t.Errorf("find origin region = r%d, want %v", first.Region, corner)
	}
	if last.Kind != "found" {
		t.Errorf("span ends with %+v, want found", last)
	}
	if geo.RegionID(last.Region) != f.ev.Region() {
		t.Errorf("found at r%d, want evader region %v", last.Region, f.ev.Region())
	}
	// Timestamps are non-decreasing and the search phase climbs before the
	// trace phase descends (levels rise to a peak, then fall back to 0).
	peak, peakIdx := int16(-1), -1
	for i, e := range span {
		if i > 0 && e.At < span[i-1].At {
			t.Errorf("span timestamps decrease at %d: %v", i, e)
		}
		if e.Kind == "recv" && e.Level > peak {
			peak, peakIdx = e.Level, i
		}
	}
	if peak < 1 {
		t.Fatalf("corner-to-corner find never climbed above level 0 (peak %d)", peak)
	}
	for i, e := range span {
		if e.Kind != "recv" {
			continue
		}
		if i > peakIdx && e.Level > peak {
			t.Errorf("level rose after the search peak at %d: %v", i, e)
		}
	}
	// Every span event concerns the default object or is the client input.
	for _, e := range span {
		if e.Obj != int32(DefaultObject) {
			t.Errorf("span event for wrong object: %+v", e)
		}
	}
}

// Move epochs correlate the grow cascade an object region change triggers.
func TestMoveSpanCorrelatesCascade(t *testing.T) {
	tr := trace.New(4096)
	f := newFixture(t, fixtureConfig{side: 4, start: 0, alwaysUp: true,
		netOptions: []Option{WithTracer(tr)}})
	f.settle()
	epochsBefore := f.net.moveEpochs[DefaultObject]

	if err := f.ev.MoveTo(f.tiling.RegionAt(1, 0)); err != nil {
		t.Fatal(err)
	}
	f.settle()

	if got := f.net.moveEpochs[DefaultObject]; got != epochsBefore+1 {
		t.Fatalf("move epoch = %d, want %d", got, epochsBefore+1)
	}
	span := tr.Span(trace.OpMove(f.net.moveEpochs[DefaultObject]))
	if len(span) == 0 {
		t.Fatal("move epoch produced no correlated events")
	}
	sawGrow := false
	for _, e := range span {
		switch e.Msg {
		case KindGrow, KindGrowNbr, KindGrowPar, KindShrink, KindShrinkUpd:
		default:
			t.Errorf("non-move-family event in move span: %+v", e)
		}
		if e.Msg == KindGrow {
			sawGrow = true
		}
	}
	if !sawGrow {
		t.Error("move span contains no grow message")
	}
}

// Concurrent move cascades of different objects get distinct operation
// ids: each object's span contains only its own move-family traffic. With
// the old global move counter, object A's cascade would be correlated
// under whatever epoch object B's later region change had bumped the
// counter to.
func TestMoveSpansSeparateConcurrentObjects(t *testing.T) {
	tr := trace.New(8192)
	f := newFixture(t, fixtureConfig{side: 4, start: 0, alwaysUp: true,
		netOptions: []Option{WithTracer(tr)}})
	ev2 := addSecondEvader(t, f, 1, f.tiling.RegionAt(3, 3))
	f.settle()

	// Move both objects in the same settle window so their cascades are in
	// flight concurrently.
	if err := f.ev.MoveTo(f.tiling.RegionAt(1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := ev2.MoveTo(f.tiling.RegionAt(2, 3)); err != nil {
		t.Fatal(err)
	}
	f.settle()

	for obj, want := range map[ObjectID]int32{DefaultObject: int32(DefaultObject), 1: 1} {
		op := trace.OpMoveFor(int32(obj), f.net.moveEpochs[obj])
		span := tr.Span(op)
		if len(span) == 0 {
			t.Fatalf("object %v's move epoch produced no correlated events", obj)
		}
		for _, e := range span {
			if e.Obj != want {
				t.Errorf("object %v's move span contains another object's event: %+v", obj, e)
			}
		}
	}
	// The two ops differ even though both objects are on their first
	// post-settle epoch.
	a := trace.OpMoveFor(int32(DefaultObject), f.net.moveEpochs[DefaultObject])
	b := trace.OpMoveFor(1, f.net.moveEpochs[1])
	if a == b {
		t.Fatalf("objects share one move op id %d", a)
	}
}
