package tracker

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"vinestalk/internal/evader"
	"vinestalk/internal/geo"
)

// underV1Header returns a copy of a region encoding with its version word
// rewritten to the retired version 1.
func underV1Header(enc []byte) []byte {
	out := bytes.Clone(enc)
	binary.BigEndian.PutUint16(out, 1)
	return out
}

// FuzzDecodeRegion throws untrusted bytes at the region-state codec — the
// frames a networked host receives over the wire. Three properties must
// hold for every input:
//
//  1. no panic and no unbounded allocation (length-prefixed counts are
//     bounded against the remaining bytes before any slice is made);
//  2. a rejected frame leaves the machine state untouched;
//  3. an accepted frame is canonical: re-encoding the region reproduces
//     the input byte for byte (so no frame of another version is accepted).
func FuzzDecodeRegion(f *testing.F) {
	fx := newFixture(f, fixtureConfig{side: 4, start: 5, alwaysUp: true})
	// Two extra tracked objects make every seed a multi-object encoding:
	// several per-level table rows, exercising the strictly-ascending
	// object-id check and mid-table truncation handling.
	for obj, start := range map[ObjectID]geo.RegionID{1: 10, 2: 3} {
		ev, err := evader.New(fx.tiling, start, fx.net.SinkFor(obj))
		if err != nil {
			f.Fatal(err)
		}
		fx.net.AttachObject(obj, ev.Region)
	}
	fx.settle()
	if err := fx.ev.MoveTo(6); err != nil {
		f.Fatal(err)
	}
	fx.settle()
	if _, err := fx.net.Find(geo.RegionID(12)); err != nil {
		f.Fatal(err)
	}
	fx.settle()
	aut := fx.net.Automaton()

	// Seeds: every live region encoding, the same bytes under the retired
	// version-1 header, plus hostile shapes — truncations (including one
	// cut mid-object-table and a bare version-1 word), an implausible object
	// count, a reserved flag bit, a pointer outside its process's
	// neighbourhood, and a bad version.
	for u := 0; u < fx.tiling.NumRegions(); u++ {
		f.Add(aut.EncodeRegion(geo.RegionID(u)))
		f.Add(underV1Header(aut.EncodeRegion(geo.RegionID(u))))
	}
	f.Add([]byte{})
	f.Add([]byte{0, 1})
	enc := aut.EncodeRegion(0)
	f.Add(enc[:len(enc)-1])
	hugeObjs := bytes.Clone(enc)
	binary.BigEndian.PutUint32(hugeObjs[6:], 0xFFFFFFFF) // first level's numObjs
	f.Add(hugeObjs)
	if len(enc) > 10+encObjMinSize {
		// Truncate in the middle of the first object's row: the count
		// promises more table than the bytes deliver, so the parse must
		// fail and commit nothing.
		f.Add(enc[:10+encObjMinSize-1])
		badFlags := bytes.Clone(enc)
		badFlags[10+20] |= 0x80 // reserved flag bit of the first object
		f.Add(badFlags)
		// The first object's c names the root, which is outside the
		// neighbourhood of region 0's level-0 process.
		outside := bytes.Clone(enc)
		binary.BigEndian.PutUint32(outside[10+4:], uint32(fx.h.Root()))
		f.Add(outside)
	}
	badVersion := bytes.Clone(enc)
	binary.BigEndian.PutUint16(badVersion[0:], 99)
	f.Add(badVersion)

	const region = geo.RegionID(0)
	before := aut.EncodeRegion(region)
	// The fixture runs on the oracle host, so an accepted frame also
	// re-attaches, re-arms or disarms the region's wakeups: afterwards they
	// must be exactly the decoded armed timer variables.
	wakeupsMatch := func(t *testing.T, ctx string) {
		if got, want := fx.net.ArmedWakeups(region), armedIn(aut, region); got != want {
			t.Fatalf("%s: %d wakeups armed for %d armed timer variables", ctx, got, want)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := aut.DecodeRegion(region, data); err != nil {
			if got := aut.EncodeRegion(region); !bytes.Equal(got, before) {
				t.Fatalf("rejected frame mutated region state (err %v)", err)
			}
			wakeupsMatch(t, "rejected frame")
			return
		}
		if got := aut.EncodeRegion(region); !bytes.Equal(got, data) {
			t.Fatalf("accepted frame is not canonical:\n in  %x\n out %x", data, got)
		}
		wakeupsMatch(t, "accepted frame")
		if err := aut.DecodeRegion(region, before); err != nil {
			t.Fatalf("restoring pristine state: %v", err)
		}
		wakeupsMatch(t, "restored state")
	})
}

// TestDecodeRegionTruncatedMidTable pins the commit-after-full-parse
// property on the compact object table: a frame cut in the middle of the
// table is rejected outright and the region's prior state — including rows
// the truncated frame had already parsed — survives untouched.
func TestDecodeRegionTruncatedMidTable(t *testing.T) {
	fx := newFixture(t, fixtureConfig{side: 4, start: 5, alwaysUp: true})
	ev2 := addSecondEvader(t, fx, 1, geo.RegionID(10))
	_ = ev2
	fx.settle()
	aut := fx.net.Automaton()

	// Pick a region whose encoding carries at least one object row.
	var region geo.RegionID
	var enc []byte
	for u := 0; u < fx.tiling.NumRegions(); u++ {
		if e := aut.EncodeRegion(geo.RegionID(u)); len(e) > 10+encObjMinSize {
			region, enc = geo.RegionID(u), e
			break
		}
	}
	if enc == nil {
		t.Fatal("no region encoding carries an object row")
	}
	before := aut.EncodeRegion(region)
	for _, cut := range []int{10 + encObjMinSize - 1, len(enc) - 1, len(enc) / 2} {
		if cut <= 0 || cut >= len(enc) {
			continue
		}
		if err := aut.DecodeRegion(region, enc[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(enc))
		}
		if got := aut.EncodeRegion(region); !bytes.Equal(got, before) {
			t.Fatalf("truncation at %d mutated region state", cut)
		}
	}
}

// TestDecodeRegionRejectsV1 pins the retirement of the version-1 layout: a
// well-formed version-1 frame (empty object tables, so the two layouts
// differ in the version word alone) and a live encoding under a version-1
// header both fail on the version check and leave the tables untouched.
func TestDecodeRegionRejectsV1(t *testing.T) {
	fx := newFixture(t, fixtureConfig{side: 4, start: 5, alwaysUp: true})
	addSecondEvader(t, fx, 1, geo.RegionID(10))
	fx.settle()
	aut := fx.net.Automaton()
	for u := 0; u < fx.tiling.NumRegions(); u++ {
		region := geo.RegionID(u)
		before := aut.EncodeRegion(region)
		levels := aut.regions[region].levels
		empty := []byte{0, 1, 0, byte(len(levels))}
		for _, l := range levels {
			empty = append(empty, 0, byte(l), 0, 0, 0, 0)
		}
		for _, frame := range [][]byte{empty, underV1Header(before)} {
			err := aut.DecodeRegion(region, frame)
			if err == nil || !strings.Contains(err.Error(), "version 1") {
				t.Fatalf("region %v: version-1 frame %x: got %v, want the version error", region, frame, err)
			}
			if got := aut.EncodeRegion(region); !bytes.Equal(got, before) {
				t.Fatalf("region %v: rejected version-1 frame mutated the tables", region)
			}
		}
	}
}

// TestEncodeRegionElidesQuiescentSlots pins the compactness
// claim: an on-path object with no armed timers and no pending finds costs
// exactly encObjMinSize bytes in the table.
func TestEncodeRegionElidesQuiescentSlots(t *testing.T) {
	fx := newFixture(t, fixtureConfig{side: 4, start: 5, alwaysUp: true})
	fx.settle()
	aut := fx.net.Automaton()
	// The evader's region hosts a level-0 process with c = the cluster
	// itself, no armed timer, nothing pending after settle.
	u := fx.ev.Region()
	pr := aut.processAt(u, 0)
	if pr == nil || pr.objs.len() == 0 {
		t.Fatalf("evader region %v hosts no live level-0 object state", u)
	}
	st := pr.objs.get(DefaultObject)
	if st == nil {
		t.Fatalf("evader region %v holds no row for the evader", u)
	}
	if !st.settled() {
		t.Fatalf("settled state unexpectedly busy: %+v", st)
	}
	// The region's only rows are the settled evader's, one per hosted
	// level, so the whole encoding is headers plus minimum-size rows.
	levels := len(aut.regions[u].levels)
	if got, want := len(aut.EncodeRegion(u)), 4+levels*(6+encObjMinSize); got != want {
		t.Fatalf("settled region %v encodes to %d bytes, want %d (%d levels of one %d-byte row)",
			u, got, want, levels, encObjMinSize)
	}
}

// TestEncodeRegionSizesItsBufferExactly pins EncodeRegion's size estimate:
// with heartbeats on, the rows of a tracking path hold leases, and a find
// searching for an object held nowhere near holds a nbrtimeout and its
// pending finds, yet every region's encoding fills the buffer it was
// allocated, with no append growing it. The check runs after every kernel
// event of the find, and must meet at least one region whose rows hold all
// three at once.
func TestEncodeRegionSizesItsBufferExactly(t *testing.T) {
	f := newFixture(t, fixtureConfig{side: 8, start: 0, alwaysUp: true, heartbeat: 8 * unit})
	const far = ObjectID(7)
	addSecondEvader(t, f, far, geo.RegionID(63))
	f.k.RunUntil(40 * unit)
	aut := f.net.Automaton()
	busy := 0
	check := func() {
		t.Helper()
		for u := range aut.regions {
			enc := aut.EncodeRegion(geo.RegionID(u))
			if cap(enc) != len(enc) {
				t.Fatalf("at %v region %d encodes %d bytes into a buffer of %d", f.k.Now(), u, len(enc), cap(enc))
			}
			leased, searching := false, false
			for _, level := range aut.regions[u].levels {
				aut.regions[u].byLevel[level].objs.each(func(st *objState) {
					leased = leased || st.armed(timerLease)
					searching = searching || (st.finding && st.armed(timerNbrTimeout))
				})
			}
			if leased && searching {
				busy++
			}
		}
	}
	if _, err := f.net.FindObject(0, far); err != nil {
		t.Fatal(err)
	}
	for steps := 0; len(f.founds) == 0; steps++ {
		if steps == 100_000 || !f.k.Step() {
			t.Fatalf("find not answered after %d events", steps)
		}
		check()
	}
	if busy == 0 {
		t.Fatal("no region held a lease, a nbrtimeout and a pending find at once; the check proves nothing")
	}
}
