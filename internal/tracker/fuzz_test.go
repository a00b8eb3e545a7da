package tracker

import (
	"bytes"
	"encoding/binary"
	"testing"

	"vinestalk/internal/evader"
	"vinestalk/internal/geo"
	"vinestalk/internal/sim"
)

// encodeRegionV1 renders region u's state in the legacy version-1 layout
// (fixed-width: all four timer deadlines plus a pending count per object),
// seeding the fuzzer's backward-compatibility path.
func encodeRegionV1(a *Automaton, u geo.RegionID) []byte {
	d, ok := a.regions[u]
	if !ok {
		return nil
	}
	var buf []byte
	buf = binary.BigEndian.AppendUint16(buf, regionStateVersionV1)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(d.levels)))
	for _, level := range d.levels {
		pr := d.byLevel[level]
		buf = binary.BigEndian.AppendUint16(buf, uint16(level))
		buf = binary.BigEndian.AppendUint32(buf, uint32(pr.objs.len()))
		pr.objs.each(func(st *objState) {
			buf = binary.BigEndian.AppendUint32(buf, uint32(st.obj))
			buf = binary.BigEndian.AppendUint32(buf, uint32(st.c))
			buf = binary.BigEndian.AppendUint32(buf, uint32(st.p))
			buf = binary.BigEndian.AppendUint32(buf, uint32(st.nbrptup))
			buf = binary.BigEndian.AppendUint32(buf, uint32(st.nbrptdown))
			for _, at := range st.timers {
				buf = binary.BigEndian.AppendUint64(buf, uint64(at))
			}
			pending := pr.pending[st.obj]
			buf = binary.BigEndian.AppendUint32(buf, uint32(len(pending)))
			for _, p := range pending {
				buf = binary.BigEndian.AppendUint64(buf, uint64(p.ID))
				buf = binary.BigEndian.AppendUint32(buf, uint32(p.Origin))
			}
		})
	}
	return buf
}

// FuzzDecodeRegion throws untrusted bytes at the region-state codec — the
// frames a networked host receives over the wire. Three properties must
// hold for every input:
//
//  1. no panic and no unbounded allocation (length-prefixed counts are
//     bounded against the remaining bytes before any slice is made);
//  2. a rejected frame leaves the machine state untouched;
//  3. an accepted version-2 frame is canonical: re-encoding the region
//     reproduces the input byte for byte. An accepted version-1 frame
//     re-encodes to version 2, and that re-encoding is a fixpoint (it
//     decodes and re-encodes to itself) — the upgrade path for
//     pre-version-2 checkpoints.
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

	// Seeds: every live region encoding (version 2 and the legacy version 1
	// of the same state), plus hostile shapes — truncations (including one
	// cut mid-object-table), an implausible object count, a reserved flag
	// bit, and a bad version.
	for u := 0; u < fx.tiling.NumRegions(); u++ {
		f.Add(aut.EncodeRegion(geo.RegionID(u)))
		f.Add(encodeRegionV1(aut, geo.RegionID(u)))
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
	}
	badVersion := bytes.Clone(enc)
	binary.BigEndian.PutUint16(badVersion[0:], 99)
	f.Add(badVersion)

	const region = geo.RegionID(0)
	before := aut.EncodeRegion(region)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := aut.DecodeRegion(region, data); err != nil {
			if got := aut.EncodeRegion(region); !bytes.Equal(got, before) {
				t.Fatalf("rejected frame mutated region state (err %v)", err)
			}
			return
		}
		got := aut.EncodeRegion(region)
		if len(data) >= 2 && binary.BigEndian.Uint16(data) == regionStateVersion {
			if !bytes.Equal(got, data) {
				t.Fatalf("accepted frame is not canonical:\n in  %x\n out %x", data, got)
			}
		} else {
			// Version-1 input: the re-encoding is version 2 and must be a
			// fixpoint of decode∘encode (same state, canonical bytes).
			if err := aut.DecodeRegion(region, got); err != nil {
				t.Fatalf("re-encoding of accepted v1 frame rejected: %v", err)
			}
			if again := aut.EncodeRegion(region); !bytes.Equal(again, got) {
				t.Fatalf("v1 upgrade is not a fixpoint:\n first  %x\n second %x", got, again)
			}
		}
		if err := aut.DecodeRegion(region, before); err != nil {
			t.Fatalf("restoring pristine state: %v", err)
		}
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

// TestDecodeRegionV1Compat pins the upgrade path: a version-1 encoding of
// live state decodes into exactly the state the version-2 encoding of the
// same machine describes.
func TestDecodeRegionV1Compat(t *testing.T) {
	fx := newFixture(t, fixtureConfig{side: 4, start: 5, alwaysUp: true})
	addSecondEvader(t, fx, 1, geo.RegionID(10))
	fx.settle()
	aut := fx.net.Automaton()
	for u := 0; u < fx.tiling.NumRegions(); u++ {
		region := geo.RegionID(u)
		want := aut.EncodeRegion(region)
		v1 := encodeRegionV1(aut, region)
		if err := aut.DecodeRegion(region, v1); err != nil {
			t.Fatalf("region %v: v1 frame rejected: %v", region, err)
		}
		if got := aut.EncodeRegion(region); !bytes.Equal(got, want) {
			t.Fatalf("region %v: v1 round trip diverged:\n want %x\n got  %x", region, want, got)
		}
	}
}

// TestEncodeRegionElidesQuiescentSlots pins the version-2 compactness
// claim: an on-path object with no armed timers and no pending finds costs
// exactly encObjMinSize bytes in the table, versus v1's fixed 56.
func TestEncodeRegionElidesQuiescentSlots(t *testing.T) {
	fx := newFixture(t, fixtureConfig{side: 4, start: 5, alwaysUp: true})
	fx.settle()
	aut := fx.net.Automaton()
	// The evader's region hosts a level-0 process with c = the cluster
	// itself, unarmed timers, nothing pending after settle.
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
	enc := aut.EncodeRegion(u)
	v1 := encodeRegionV1(aut, u)
	// Every fully-quiescent-slot row saves encObjMinSizeV1-encObjMinSize
	// bytes, so the whole-region encoding must shrink.
	if len(enc) >= len(v1) {
		t.Fatalf("v2 encoding (%d bytes) not smaller than v1 (%d bytes)", len(enc), len(v1))
	}
	_ = sim.Forever
}
