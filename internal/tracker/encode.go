package tracker

import (
	"encoding/binary"
	"fmt"

	"vinestalk/internal/geo"
	"vinestalk/internal/hier"
	"vinestalk/internal/sim"
)

// Region-state codec for the emulation host: the complete Fig. 2 state of
// every process a region hosts, in a canonical byte form. Canonical means
// two replicas that processed the same input sequence encode byte-identical
// values — levels ascend, objects ascend, pending finds keep arrival order
// (part of the machine state), and timer deadlines are the recorded
// absolute times.
//
// The layout is object-major and compact: the per-process object table
// yields its rows in ascending object order (sorting them on demand), and
// the common case (an on-path object with no armed timers and no pending
// finds) costs 21 bytes — timer variables that read ∞ and the empty pending
// set are elided behind a flags byte. Its timer bits are the row's own
// (objState.tmask), and its deadlines are the row's slot in the table's
// deadline slab, in bit order; the slot's wakeup refs are the oracle host's
// bookkeeping, not machine state, and are not encoded.
//
// Layout (big-endian):
//
//	u16 version(=2) | u16 numLevels
//	per level:  u16 level | u32 numObjs
//	per object: i32 obj | i32 c | i32 p | i32 nbrptup | i32 nbrptdown
//	            u8 flags    (bit 0..3: timer/nbrTimeout/lease/nbrLease
//	                         armed; bit 4: pending finds follow)
//	            per armed slot, in bit order: i64 deadline
//	            if bit 4:   u32 numPending (≥1) | per pending: i64 findID
//	                        | i32 origin
//
// Any other version word is rejected.

const regionStateVersion = 2

// encFlag bits of the per-object flags byte. Bits 0..3 are timerKind order,
// the bits of objState.tmask.
const (
	encFlagTimer      = 1 << 0
	encFlagNbrTimeout = 1 << 1
	encFlagLease      = 1 << 2
	encFlagNbrLease   = 1 << 3
	encFlagPending    = 1 << 4
	encFlagReserved   = 0xFF &^ (encFlagTimer | encFlagNbrTimeout | encFlagLease | encFlagNbrLease | encFlagPending)
)

// EncodeRegion implements vsa.Automaton.
func (a *Automaton) EncodeRegion(u geo.RegionID) []byte {
	d := a.region(u)
	if d == nil {
		return nil
	}
	// Size the buffer exactly from the per-process counts: the floor per
	// row, each armed timer of any kind and each held find.
	size := 4
	for _, level := range d.levels {
		pr := d.byLevel[level]
		size += 6 + encObjMinSize*pr.objs.len() + 8*pr.objs.armed
		for _, finds := range pr.pending {
			size += 4 + encPendingSize*len(finds)
		}
	}
	buf := make([]byte, 0, size)
	buf = binary.BigEndian.AppendUint16(buf, regionStateVersion)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(d.levels)))
	for _, level := range d.levels {
		pr := d.byLevel[level]
		buf = binary.BigEndian.AppendUint16(buf, uint16(level))
		buf = binary.BigEndian.AppendUint32(buf, uint32(pr.objs.len()))
		// The table iterates in ascending object id.
		pr.objs.each(func(st *objState) {
			buf = binary.BigEndian.AppendUint32(buf, uint32(st.obj))
			buf = binary.BigEndian.AppendUint32(buf, uint32(pr.cluster(st.c)))
			buf = binary.BigEndian.AppendUint32(buf, uint32(pr.cluster(st.p)))
			buf = binary.BigEndian.AppendUint32(buf, uint32(pr.cluster(st.nbrptup)))
			buf = binary.BigEndian.AppendUint32(buf, uint32(pr.cluster(st.nbrptdown)))
			flags := st.tmask
			if st.finding {
				flags |= encFlagPending
			}
			buf = append(buf, flags)
			for kind := timerKind(0); kind < numTimerKinds; kind++ {
				if st.armed(kind) {
					buf = binary.BigEndian.AppendUint64(buf, uint64(pr.objs.deadline(st, kind)))
				}
			}
			if st.finding {
				pending := pr.pending[st.obj]
				buf = binary.BigEndian.AppendUint32(buf, uint32(len(pending)))
				for _, p := range pending {
					buf = binary.BigEndian.AppendUint64(buf, uint64(p.ID))
					buf = binary.BigEndian.AppendUint32(buf, uint32(p.Origin))
				}
			}
		})
	}
	return buf
}

// encodeInitialRegion returns the canonical encoding of region u in its
// initial state (the emul.Program.Init value).
func (a *Automaton) encodeInitialRegion(u geo.RegionID) []byte {
	d := a.region(u)
	if d == nil {
		return nil
	}
	var buf []byte
	buf = binary.BigEndian.AppendUint16(buf, regionStateVersion)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(d.levels)))
	for _, level := range d.levels {
		buf = binary.BigEndian.AppendUint16(buf, uint16(level))
		buf = binary.BigEndian.AppendUint32(buf, 0)
	}
	return buf
}

// decoder is a bounds-checked big-endian cursor.
type decoder struct {
	buf []byte
	off int
	err error
}

func (r *decoder) u8() byte {
	if r.err != nil || r.off+1 > len(r.buf) {
		r.fail()
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *decoder) u16() uint16 {
	if r.err != nil || r.off+2 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v
}

func (r *decoder) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *decoder) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// bytes reads n raw bytes without copying (callers that retain the slice
// hold a view of the input buffer).
func (r *decoder) bytes(n int) []byte {
	if r.err != nil || n < 0 || r.off+n > len(r.buf) {
		r.fail()
		return nil
	}
	v := r.buf[r.off : r.off+n]
	r.off += n
	return v
}

func (r *decoder) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("tracker: truncated region state at offset %d", r.off)
	}
}

// remaining reports how many undecoded bytes are left.
func (r *decoder) remaining() int { return len(r.buf) - r.off }

// Minimum encoded sizes, used to sanity-bound length-prefixed counts
// before allocating: a count that could not possibly be satisfied by the
// remaining bytes is rejected up front, so a crafted frame cannot force a
// huge allocation.
const (
	encObjMinSize  = 5*4 + 1 // object id + pointers + flags byte
	encPendingSize = 8 + 4   // findID + origin
)

// decodeArmedTimer reads one armed deadline. The encoder only writes
// absolute times ≥ 0 and elides the slots that read ∞, so a negative
// deadline or a written ∞ marks a corrupted, hostile or non-canonical frame.
func (r *decoder) decodeArmedTimer() sim.Time {
	at := sim.Time(r.u64())
	if r.err == nil && at < 0 {
		r.err = fmt.Errorf("tracker: negative timer deadline %d at offset %d", at, r.off)
	}
	if r.err == nil && at == sim.Forever {
		r.err = fmt.Errorf("tracker: armed timer slot carries ∞ at offset %d", r.off)
	}
	return at
}

// pointer reads one of pr's pointers as its index in pr's neighbourhood. A
// cluster outside the neighbourhood fails the decode: no row can hold it,
// and only a corrupted or hostile frame carries it.
func (r *decoder) pointer(pr *Process) hoodIdx {
	c := hier.ClusterID(r.u32())
	i, ok := pr.index(c)
	if r.err == nil && !ok {
		r.err = fmt.Errorf("tracker: pointer %v at offset %d is outside the neighbourhood of cluster %v", c, r.off-4, pr.id)
	}
	return i
}

// DecodeRegion implements vsa.Automaton: it replaces region u's machine
// state with a previously encoded value. The decoded deadlines are
// authoritative and every wakeup is validated against them, so the
// emulated and networked hosts, whose wakeups are advisory, reconcile
// nothing. The oracle host keeps its wakeups' refs in the rows the decode
// replaces, so there the decode ends by making region u's wakeups exactly
// its decoded armed variables (oracleHost.rewake): a wakeup keeps its event
// when its deadline still stands, and an armed deadline already past fires
// at once.
//
// The input is untrusted (a networked host receives checkpoints over the
// wire): length-prefixed counts are bounded against the remaining bytes
// before any allocation, canonical form is enforced (levels in host order,
// object ids strictly ascending, deadlines non-negative, no reserved flag
// bits, armed slots finite, a pending section only when non-empty), every
// pointer must name a member of its process's neighbourhood (a row keeps
// pointers as indices into it, Process.hood), and nothing is committed
// until the whole frame parses — so every accepted frame is one
// EncodeRegion could have produced, byte for byte.
func (a *Automaton) DecodeRegion(u geo.RegionID, state []byte) error {
	d := a.region(u)
	if d == nil {
		if len(state) == 0 {
			return nil
		}
		return fmt.Errorf("tracker: region %v hosts no processes", u)
	}
	r := &decoder{buf: state}
	version := r.u16()
	if r.err == nil && version != regionStateVersion {
		return fmt.Errorf("tracker: region state version %d, want %d", version, regionStateVersion)
	}
	numLevels := int(r.u16())
	if r.err == nil && numLevels != len(d.levels) {
		return fmt.Errorf("tracker: region %v state has %d levels, host has %d", u, numLevels, len(d.levels))
	}
	type decodedProc struct {
		pr        *Process
		objs      objTable
		pending   map[ObjectID][]FindPayload
		armedMove int
	}
	decoded := make([]decodedProc, 0, numLevels)
	for i := 0; i < numLevels && r.err == nil; i++ {
		level := int(r.u16())
		if r.err == nil && level != d.levels[i] {
			return fmt.Errorf("tracker: region %v state level %d at index %d, want canonical order %v", u, level, i, d.levels)
		}
		pr := d.byLevel[level]
		if pr == nil {
			return fmt.Errorf("tracker: region %v state names level %d, which it does not host", u, level)
		}
		numObjs := int(r.u32())
		if r.err == nil && numObjs > r.remaining()/encObjMinSize {
			return fmt.Errorf("tracker: region %v state claims %d objects with %d bytes left", u, numObjs, r.remaining())
		}
		dp := decodedProc{pr: pr}
		dp.objs.reserve(numObjs)
		prevObj := ObjectID(0)
		for j := 0; j < numObjs && r.err == nil; j++ {
			obj := ObjectID(r.u32())
			if r.err == nil && j > 0 && obj <= prevObj {
				return fmt.Errorf("tracker: region %v state object %d after %d, want strictly ascending", u, obj, prevObj)
			}
			prevObj = obj
			st := objState{obj: obj}
			st.c = r.pointer(pr)
			st.p = r.pointer(pr)
			st.nbrptup = r.pointer(pr)
			st.nbrptdown = r.pointer(pr)
			flags := r.u8()
			if r.err == nil && flags&encFlagReserved != 0 {
				return fmt.Errorf("tracker: region %v state object %d has reserved flag bits %#x", u, obj, flags)
			}
			for kind := timerKind(0); kind < numTimerKinds; kind++ {
				if flags&(1<<kind) != 0 {
					dp.objs.setDeadline(&st, kind, r.decodeArmedTimer())
				}
			}
			if flags&encFlagPending != 0 {
				numPending := int(r.u32())
				if r.err == nil && numPending == 0 {
					return fmt.Errorf("tracker: region %v state object %d flags pending finds but carries none", u, obj)
				}
				if r.err == nil && numPending > r.remaining()/encPendingSize {
					return fmt.Errorf("tracker: region %v state claims %d pending finds with %d bytes left", u, numPending, r.remaining())
				}
				finds := make([]FindPayload, 0, numPending)
				for p := 0; p < numPending && r.err == nil; p++ {
					id := FindID(r.u64())
					origin := geo.RegionID(r.u32())
					finds = append(finds, FindPayload{ID: id, Origin: origin})
				}
				if dp.pending == nil {
					dp.pending = make(map[ObjectID][]FindPayload)
				}
				dp.pending[obj] = finds
				st.finding = true
			}
			if r.err != nil {
				break
			}
			if st.armed(timerGrowShrink) {
				dp.armedMove++
			}
			dp.objs.insert(st)
		}
		decoded = append(decoded, dp)
	}
	if r.err != nil {
		return r.err
	}
	if r.off != len(state) {
		return fmt.Errorf("tracker: %d trailing bytes in region %v state", len(state)-r.off, u)
	}
	// Commit only after a fully successful parse.
	for _, dp := range decoded {
		dp.pr.adopt(dp.objs, dp.pending, dp.armedMove)
	}
	if h, ok := a.out.(*oracleHost); ok {
		h.rewake(u)
	}
	return nil
}
