package tracker

import (
	"math/bits"
	"math/rand/v2"
	"slices"

	"vinestalk/internal/sim"
)

// objMix is the odd multiplier that scatters object ids over an index. It is
// drawn once per process start, so ids a networked peer chooses cannot be
// aimed at one probe run; no output depends on where a row is indexed.
var objMix = rand.Uint64() | 1

// objSlabMin is the slab capacity at or below which a table never compacts,
// so a process whose rows come and go one at a time keeps its small arrays.
// It also caps the deadline slab a table keeps while no row is armed.
const objSlabMin = 8

// objTable is the per-process object-state table: pointer-free value rows in
// an unordered slab, found through an open-addressed index, and the finite
// timer deadlines of its armed rows in a second slab.
//
// rows is the slab. A slot is live, or free and listed in free, which insert
// reuses before it appends. idx is a linear-probing index of the live slots:
// an entry holds slot+1 (0 marks it empty), and its length is a power of two
// at least twice the slab's capacity, so it is never more than half full. A
// remove closes its probe run by shifting later entries back, so no
// tombstones build up. get, insert and remove therefore take O(1) expected
// steps and move no row. Rows move only when the slab grows, and when a
// table holding at most a quarter of its capacity compacts into half of it,
// so the footprint follows the live row count.
//
// deadlines holds the timer variables of the rows with at least one finite
// deadline, one slot per such row (objState.dl); a slot is in use, or free
// and listed in dlFree. Only setDeadline takes and gives back slots, for
// any row — a scratch row of an action in progress included, before leave
// inserts it — and it moves no row, so none moves on an arm or a clear.
// When the last armed row clears, the slab starts afresh, keeping at most
// objSlabMin slots. armed counts the finite deadlines (every row's tmask
// bits).
//
// All five arrays are pointer-free and never scanned by the collector.
//
// A *objState obtained from get or each points into the slab and is valid
// only until the next insert, remove, reserve or insertBatch on the table.
type objTable struct {
	rows  []objState
	free  []int32
	idx   []int32
	shift uint8 // 64 − log2(len(idx)): the top bits of a mixed id are its home entry
	n     int

	deadlines [][numTimerKinds]sim.Time
	dlFree    []int32
	armed     int
}

// home returns obj's first index entry.
func (t *objTable) home(obj ObjectID) int {
	h := uint64(uint32(obj)) * objMix
	h ^= h >> 29
	return int((h * 0xbf58476d1ce4e5b9) >> t.shift)
}

// lookup returns the index entry holding obj and its slot, or the empty
// entry that ends obj's probe run and -1. The index must not be nil.
func (t *objTable) lookup(obj ObjectID) (pos int, slot int32) {
	mask := len(t.idx) - 1
	for pos = t.home(obj); ; pos = (pos + 1) & mask {
		slot = t.idx[pos] - 1
		if slot < 0 || t.rows[slot].obj == obj {
			return pos, slot
		}
	}
}

// get returns obj's row, or nil.
func (t *objTable) get(obj ObjectID) *objState {
	if t.n == 0 {
		return nil
	}
	if _, s := t.lookup(obj); s >= 0 {
		return &t.rows[s]
	}
	return nil
}

// len returns the number of rows.
func (t *objTable) len() int { return t.n }

// each calls fn on every row in ascending object order. fn may modify the
// row but not the table.
func (t *objTable) each(fn func(*objState)) {
	for _, key := range t.sorted() {
		fn(&t.rows[uint32(key)])
	}
}

// sorted returns the live slots in ascending object order, each in the low
// half of a key whose high half is its row's object id with the sign bit
// flipped, so that sorting the keys as unsigned integers sorts the ids.
func (t *objTable) sorted() []uint64 {
	keys := make([]uint64, 0, t.n)
	for _, e := range t.idx {
		if e != 0 {
			s := uint32(e - 1)
			keys = append(keys, uint64(uint32(t.rows[s].obj)^1<<31)<<32|uint64(s))
		}
	}
	slices.Sort(keys)
	return keys
}

// insert adds a row. The object must be absent; a second row for one object
// is a caller bug and panics.
func (t *objTable) insert(row objState) {
	t.reserve(t.n + 1)
	pos, s := t.lookup(row.obj)
	if s >= 0 {
		panic("tracker: objTable.insert of an object already present")
	}
	if f := len(t.free); f > 0 {
		s, t.free = t.free[f-1], t.free[:f-1]
		t.rows[s] = row
	} else {
		s = int32(len(t.rows))
		t.rows = append(t.rows, row)
	}
	t.idx[pos] = s + 1
	t.n++
}

// remove drops obj's row, if present, freeing its slot. A table left at a
// quarter of a slab above objSlabMin compacts into half of it; a smaller one
// keeps its arrays, even when empty.
func (t *objTable) remove(obj ObjectID) {
	if t.n == 0 {
		return
	}
	pos, s := t.lookup(obj)
	if s < 0 {
		return
	}
	t.unlink(pos)
	t.n--
	if c := cap(t.rows); c > objSlabMin && t.n <= c/4 {
		t.compact(c / 2)
	} else {
		t.free = append(t.free, s)
	}
}

// unlink empties index entry pos and shifts the later entries of its probe
// run back over the hole, so every remaining slot stays reachable from its
// home entry.
func (t *objTable) unlink(pos int) {
	mask := len(t.idx) - 1
	for next := (pos + 1) & mask; t.idx[next] != 0; next = (next + 1) & mask {
		// The entry at next may fill the hole unless its home lies
		// cyclically after the hole.
		if home := t.home(t.rows[t.idx[next]-1].obj); (next-home)&mask >= (next-pos)&mask {
			t.idx[pos] = t.idx[next]
			pos = next
		}
	}
	t.idx[pos] = 0
}

// idxSize is the index length for a slab of capacity c: the smallest power
// of two at least 2c.
func idxSize(c int) int { return 1 << bits.Len(uint(2*c-1)) }

// reserve makes room for n rows: a slab of capacity n or more, grown by
// append's amortized policy (to n itself when that at least doubles it), and
// an index at most half full at that capacity.
func (t *objTable) reserve(n int) {
	if n <= cap(t.rows) {
		return
	}
	t.rows = slices.Grow(t.rows, n-len(t.rows))
	if size := idxSize(cap(t.rows)); size > len(t.idx) {
		old := t.idx
		t.reindex(size)
		for _, e := range old {
			if e != 0 {
				t.link(e - 1)
			}
		}
	}
}

// compact moves the live rows, in ascending object order, into a slab of
// capacity c and indexes them afresh.
func (t *objTable) compact(c int) {
	rows := make([]objState, 0, c)
	for _, key := range t.sorted() {
		rows = append(rows, t.rows[uint32(key)])
	}
	t.rows, t.free = rows, nil
	t.reindex(idxSize(c))
	for s := range rows {
		t.link(int32(s))
	}
}

// reindex replaces the index by an empty one of size entries.
func (t *objTable) reindex(size int) {
	t.idx = make([]int32, size)
	t.shift = uint8(64 - bits.TrailingZeros(uint(size)))
}

// link enters slot at the end of its row's probe run.
func (t *objTable) link(slot int32) {
	mask := len(t.idx) - 1
	pos := t.home(t.rows[slot].obj)
	for t.idx[pos] != 0 {
		pos = (pos + 1) & mask
	}
	t.idx[pos] = slot + 1
}

// insertBatch adds rows — distinct, in any order, and all absent from the
// table — after sizing the slab for them once. This is the bulk-attach path;
// a duplicate object is a caller bug and panics.
func (t *objTable) insertBatch(rows []objState) {
	t.reserve(t.n + len(rows))
	for _, row := range rows {
		t.insert(row)
	}
}

// deadline returns a timer variable of st, a row of this table or a scratch
// row of an action on it: its finite deadline, or ∞.
func (t *objTable) deadline(st *objState, kind timerKind) sim.Time {
	if !st.armed(kind) {
		return sim.Forever
	}
	return t.deadlines[st.dl][kind]
}

// setDeadline writes a timer variable of st — a finite deadline, or ∞ to
// clear it. The row takes a deadline slot when its first variable is armed
// and gives it back when its last is cleared.
func (t *objTable) setDeadline(st *objState, kind timerKind, at sim.Time) {
	bit := uint8(1) << kind
	if at == sim.Forever {
		if st.tmask&bit == 0 {
			return
		}
		st.tmask &^= bit
		t.armed--
		if st.tmask == 0 {
			t.freeDeadlines(st.dl)
		}
		return
	}
	if st.tmask == 0 {
		if f := len(t.dlFree); f > 0 {
			st.dl, t.dlFree = t.dlFree[f-1], t.dlFree[:f-1]
		} else {
			st.dl = int32(len(t.deadlines))
			t.deadlines = append(t.deadlines, [numTimerKinds]sim.Time{})
		}
	}
	if st.tmask&bit == 0 {
		st.tmask |= bit
		t.armed++
	}
	t.deadlines[st.dl][kind] = at
}

// freeDeadlines gives deadline slot s back. The last slot in use empties
// the slab: one above objSlabMin is dropped, a smaller one kept for reuse.
func (t *objTable) freeDeadlines(s int32) {
	if len(t.dlFree)+1 < len(t.deadlines) {
		t.dlFree = append(t.dlFree, s)
		return
	}
	if cap(t.deadlines) > objSlabMin {
		t.deadlines, t.dlFree = nil, nil
		return
	}
	t.deadlines, t.dlFree = t.deadlines[:0], t.dlFree[:0]
}
