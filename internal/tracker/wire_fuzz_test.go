package tracker

import (
	"bytes"
	"encoding/binary"
	"testing"

	"vinestalk/internal/hier"
)

// wireFuzzKinds maps a fuzz selector byte onto a message kind, covering
// every body schema plus one kind the codec must always reject.
var wireFuzzKinds = []string{
	KindFind, KindFound, KindFindAck, KindRefresh,
	KindGrow, KindGrowNbr, KindGrowPar, KindShrink, KindShrinkUpd,
	KindFindQuery, "bogus",
}

// FuzzDecodeClusterMessage throws untrusted bytes at the cluster-message
// codec — the other half of the networked host's wire surface, next to
// FuzzDecodeRegion. For every (kind, payload) input:
//
//  1. no panic and no unbounded allocation (the find/found payload count
//     is bounded against the remaining bytes before the slice is made);
//  2. an accepted message is canonical: re-encoding the decoded fields
//     reproduces the input byte for byte, so every accepted frame is one
//     EncodeClusterMsg could have produced;
//  3. unknown kinds, version mismatches, and trailing bytes are rejected.
func FuzzDecodeClusterMessage(f *testing.F) {
	// Seeds: a well-formed message of every kind, plus hostile shapes —
	// truncations, a payload count far past the buffer, a bad version,
	// and trailing garbage.
	seed := func(kind string, body any) []byte {
		b, err := EncodeClusterMsg(3, 7, 1, DefaultObject, kind, body)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	payloads := []FindPayload{{ID: 42, Origin: 5}, {ID: -1, Origin: -1}}
	kindSel := func(kind string) byte {
		for i, k := range wireFuzzKinds {
			if k == kind {
				return byte(i)
			}
		}
		f.Fatalf("kind %q missing from wireFuzzKinds", kind)
		return 0
	}
	find := seed(KindFind, payloads)
	f.Add(kindSel(KindFind), find)
	f.Add(kindSel(KindFound), seed(KindFound, []FindPayload{}))
	f.Add(kindSel(KindFindAck), seed(KindFindAck, hier.ClusterID(9)))
	f.Add(kindSel(KindRefresh), seed(KindRefresh, 4))
	for _, k := range []string{KindGrow, KindGrowNbr, KindGrowPar, KindShrink, KindShrinkUpd, KindFindQuery} {
		f.Add(kindSel(k), seed(k, nil))
	}
	f.Add(kindSel("bogus"), seed(KindGrow, nil))
	f.Add(kindSel(KindFind), []byte{})
	f.Add(kindSel(KindFind), find[:len(find)-1])
	hugeCount := bytes.Clone(find)
	binary.BigEndian.PutUint16(hugeCount[16:], 0xFFFF)
	f.Add(kindSel(KindFind), hugeCount)
	badVersion := bytes.Clone(find)
	binary.BigEndian.PutUint16(badVersion[0:], 99)
	f.Add(kindSel(KindFind), badVersion)
	f.Add(kindSel(KindGrow), append(seed(KindGrow, nil), 0xAA))
	// Multi-object encodings: the same schemas with nonzero object ids, so
	// the corpus exercises the object field rather than pinning it to the
	// default object.
	for _, obj := range []ObjectID{1, 77, ObjectID(-1) & 0x7FFFFFFF} {
		b, err := EncodeClusterMsg(3, 7, 1, obj, KindGrow, nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(kindSel(KindGrow), b)
		b, err = EncodeClusterMsg(3, 7, 2, obj, KindFind, payloads)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(kindSel(KindFind), b)
	}

	f.Fuzz(func(t *testing.T, sel byte, data []byte) {
		kind := wireFuzzKinds[int(sel)%len(wireFuzzKinds)]
		level, del, err := DecodeClusterMsg(kind, data)
		if kind == "bogus" {
			if err == nil {
				t.Fatalf("unknown kind accepted: %x", data)
			}
			return
		}
		if err != nil {
			return
		}
		reenc, err := EncodeClusterMsg(del.From, del.FromRegion, level, ObjectID(del.Obj), kind, wireBody(kind, &del.Body))
		if err != nil {
			t.Fatalf("re-encoding accepted %s message: %v", kind, err)
		}
		if !bytes.Equal(reenc, data) {
			t.Fatalf("accepted %s frame is not canonical:\n in  %x\n out %x", kind, data, reenc)
		}
	})
}

// TestWireFuzzSelectorsResolve pins the selector byte → kind mapping the
// checked-in seed corpus depends on.
func TestWireFuzzSelectorsResolve(t *testing.T) {
	if got := wireFuzzKinds[0]; got != KindFind {
		t.Fatalf("selector 0 = %q, want %q", got, KindFind)
	}
	if got := wireFuzzKinds[len(wireFuzzKinds)-1]; got != "bogus" {
		t.Fatalf("last selector = %q, want the reject probe", got)
	}
	// An empty frame is short of even the header for every kind.
	for i, k := range wireFuzzKinds {
		if _, _, err := DecodeClusterMsg(k, nil); err == nil {
			t.Errorf("selector %d (%q): empty frame accepted", i, k)
		}
	}
}
