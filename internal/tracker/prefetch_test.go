package tracker

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"vinestalk/internal/cgcast"
	"vinestalk/internal/geo"
	"vinestalk/internal/hier"
)

// A batched frame of several messages, delivered to processes that hold
// rows for their objects, allocates nothing on the oracle host — the
// look-ahead pass over its entries included. The findAcks below find no find
// pending, so each round leaves every row as it found it.
func TestBatchedFrameDeliveryAllocatesNothing(t *testing.T) {
	const objects = 12
	f := newFixture(t, fixtureConfig{side: 4, start: 0, alwaysUp: true,
		cgOptions: []cgcast.Option{cgcast.WithBatching()}})
	f.settle()
	dst := f.h.Cluster(5, 0)
	src := f.h.Nbrs(dst)[0]
	specs := make([]AttachSpec, objects)
	for i := range specs {
		specs[i] = AttachSpec{Obj: ObjectID(100 + i), At: f.h.Head(dst)}
	}
	if err := f.net.AttachObjects(specs); err != nil {
		t.Fatal(err)
	}
	f.settle()
	if got := f.net.Process(dst).LiveObjects(); got < objects {
		t.Fatalf("the destination holds %d rows, want at least %d", got, objects)
	}
	hinted := 0
	f.net.cg.OnPrefetch(func(u geo.RegionID, level int, b *cgcast.Body) {
		hinted++
		f.net.prefetch(u, level, b)
	})
	round := func() {
		for _, s := range specs {
			e := sendEffect{From: src, To: dst, Kind: kindFindAck, Body: cgcast.Body{Obj: int32(s.Obj), Arg: int32(hier.NoCluster)}}
			f.net.execSend(&e)
		}
		f.k.Run()
	}
	round() // warm-up: the frame, its entry buffer and the registry's slots
	enc := f.net.aut.EncodeRegion(f.h.Head(dst))
	hinted = 0
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("a round of %d messages in one frame allocated %.1f times, want 0", objects, allocs)
	}
	if hinted != 101*objects {
		t.Errorf("the look-ahead consumer saw %d messages in 101 rounds of %d, want every one", hinted, objects)
	}
	if !bytes.Equal(f.net.aut.EncodeRegion(f.h.Head(dst)), enc) {
		t.Error("the rounds changed the destination's region encoding")
	}
	if got := f.net.InTransit(); len(got) != 0 {
		t.Errorf("%d messages left in transit after the rounds", len(got))
	}
}

// The oracle host's look-ahead consumer is only a hint. Handed a region
// outside the tiling, a level its region does not host, a process with an
// empty table, or a zero, spent, stale or garbage ticket, it must not panic,
// and it changes no region's encoding and nothing in transit.
func TestPrefetchIsOnlyAHint(t *testing.T) {
	f := newFixture(t, fixtureConfig{side: 4, start: 5, alwaysUp: true})
	f.settle()
	n := f.net
	regions := f.tiling.NumRegions()
	encodings := func() [][]byte {
		encs := make([][]byte, regions)
		for u := range encs {
			encs[u] = n.aut.EncodeRegion(geo.RegionID(u))
		}
		return encs
	}

	// One message in flight; a stale ticket, whose slot now carries that
	// message; and a spent ticket, whose slot is free.
	stale := n.noteSent(1, kindGrow, 0, 1, 1)
	n.resolve(stale)
	live := n.noteSent(2, kindShrink, 1, 0, 1)
	if uint32(live) != uint32(stale) {
		t.Fatal("the registry did not reuse the resolved slot; the stale ticket needs it")
	}
	spent := n.noteSent(3, kindGrow, 0, 1, 1)
	n.resolve(spent)
	inTransit, before := n.InTransit(), encodings()

	empty := geo.RegionID(-1)
	for u := 0; u < regions; u++ {
		if pr := n.aut.processAt(geo.RegionID(u), 0); pr != nil && pr.objs.len() == 0 && len(pr.objs.rows) == 0 {
			empty = geo.RegionID(u)
			break
		}
	}
	if empty < 0 {
		t.Fatal("no level-0 process with an empty table")
	}
	tickets := []uint64{0, spent, stale, live, 1 << 40, ^uint64(0), uint64(len(n.transit)) + 1}
	places := []struct {
		u     geo.RegionID
		level int
	}{
		{-1, 0}, {geo.RegionID(regions), 0}, {1 << 30, 0}, // outside the tiling
		{empty, -1}, {empty, 1 << 20}, {1, f.h.MaxLevel() + 1}, // levels not hosted
		{empty, 0},                             // an empty table
		{f.h.Head(f.h.Root()), f.h.MaxLevel()}, // a table with rows
	}
	for _, p := range places {
		for _, ticket := range tickets {
			for _, obj := range []int32{0, 1, 2, -1, 1 << 30} {
				n.prefetch(p.u, p.level, &cgcast.Body{Obj: obj, Mark: ticket})
			}
		}
	}
	if got := n.InTransit(); !reflect.DeepEqual(got, inTransit) {
		t.Errorf("InTransit() = %v after the hints, want %v", got, inTransit)
	}
	for u, enc := range encodings() {
		if !bytes.Equal(enc, before[u]) {
			t.Errorf("region %d's encoding changed under the hints", u)
		}
	}
	n.resolve(live)
}

// A process fills every send into one scratch and hands the outlet a
// pointer to it, so an outlet that keeps a send must copy it. Two sends in
// one emulated Step are logged as two effects, each as it was sent: were
// the log to keep the pointer, both would read as the second.
func TestEmulatedLogCopiesEachSend(t *testing.T) {
	f := newFixture(t, fixtureConfig{side: 4, start: 0, alwaysUp: true,
		netOptions: []Option{WithEmulation(time.Millisecond, 50*time.Millisecond)}})
	h := f.net.emulHost
	pr := f.net.Process(f.h.Cluster(5, 0))
	nbrs := f.h.Nbrs(pr.Cluster())
	want := []sendEffect{
		{From: pr.Cluster(), Kind: kindFindAck, To: nbrs[0], Body: cgcast.Body{Obj: 3, Arg: 11}},
		{From: pr.Cluster(), Kind: kindRefresh, To: nbrs[1], Body: cgcast.Body{Obj: 4, Arg: 12}},
	}
	h.log, h.stepping = h.log[:0], true
	for _, e := range want {
		pr.sendArg(&objState{obj: ObjectID(e.Body.Obj)}, e.To, e.Kind, e.Body.Arg)
	}
	log := h.log
	h.log, h.stepping = h.log[:0], false
	if len(log) != len(want) {
		t.Fatalf("%d effects logged for %d sends", len(log), len(want))
	}
	for i, e := range log {
		if e.tag != effSend || e.send != want[i] {
			t.Errorf("effect %d logged as %+v (tag %d), sent as %+v", i, e.send, e.tag, want[i])
		}
	}
}
