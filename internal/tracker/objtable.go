package tracker

import (
	"math"
	"math/rand/v2"
	"slices"
	"unsafe"

	"vinestalk/internal/prefetch"
	"vinestalk/internal/sim"
)

// objMix is the odd multiplier that scatters object ids over a probe array.
// It is drawn once per process start, so ids a networked peer chooses cannot
// be aimed at one probe run; no output depends on where a row sits.
var objMix = rand.Uint64() | 1

// objSlabMin is the probe-array length at or below which a table never
// shrinks, so a process whose rows come and go one at a time keeps its small
// array. It is also the least capacity slabCap allows a deadline slab.
const objSlabMin = 8

// objTable is the per-process object-state table: pointer-free value rows
// held in the probe array of an open-addressed hash table, and the finite
// timer deadlines of its armed rows in a second slab.
//
// rows is the probe array. A row sits at or after its home slot (the top
// bits of its mixed id, scaled to the array's length) and records in psl its
// probe sequence length, one more than its distance from home; a psl of 0
// marks an empty slot. Placement is Robin Hood linear probing: a row being
// placed takes the slot of the first row nearer to its own home and that row
// walks on in its place, so along any run psl rises by at most one from slot
// to slot. A lookup therefore stops at the first slot whose row is nearer
// home than the probe, and the slot where the probe lands holds the row
// itself: the row's first cache line is the only dependent miss. A remove
// shifts the rest of its run back one slot, so no tombstones build up.
//
// The array is never more than 7/8 full. It is resized when an insert
// would fill it beyond that, when reserve announces a total that would, and
// when a remove leaves a table above objSlabMin slots at most a quarter
// full. A resize always makes the rows fill it 3/4 full, so the footprint
// follows the live row count at about 21 bytes a 16-byte row, and a process
// that tracks one object holds two slots. get, insert and remove take O(1)
// expected steps; insert and remove may move other rows, and a resize moves
// all of them.
//
// deadlines holds the timer variables of the rows with at least one finite
// deadline, one slot per such row (objState.dl); a slot is in use, or free
// and listed in dlFree. Beside each finite deadline a slot keeps the ref of
// the host wakeup armed for it (timerSlot.wake). Only setDeadline takes and
// gives back slots, for any row — a scratch row of an action in progress
// included, before leave inserts it — and it moves no row, so none moves on
// an arm or a clear.
// The slab grows to at most the probe array's length (objSlabMin at
// least), which bounds the rows that can be armed at once. When the last
// armed row clears, the slab empties and keeps its capacity, so the next
// burst of arms allocates nothing; it gives the capacity back only once the
// table has shrunk below it, when the probe array shrinks with the slab
// empty or when the slab empties after such a shrink. A table replaced
// whole (decode, reset) takes its slab with it. armed counts the finite
// deadlines (every row's tmask bits).
//
// All three arrays are pointer-free and never scanned by the collector.
//
// A *objState obtained from get or each points into the probe array and is
// valid only until the next insert, remove, reserve or insertBatch on the
// table.
type objTable struct {
	rows []objState
	n    int

	deadlines []timerSlot
	dlFree    []int32
	armed     int
}

// timerSlot is one row's timer variables in the deadline slab: at[k] is the
// deadline of an armed variable k, and wake[k] the ref of its wakeup in the
// oracle host's pool (hostTimers), handed back to the host to re-arm or
// clear it. setDeadline zeroes wake[k] when it arms variable k; only
// Process.setTimer and the oracle host's rewake set it. It is not machine
// state, so the region encoding leaves it out. The entries of a variable
// that reads ∞ are stale and never read.
type timerSlot struct {
	at   [numTimerKinds]sim.Time
	wake [numTimerKinds]int32
}

// home returns obj's home slot.
func (t *objTable) home(obj ObjectID) int {
	h := uint64(uint32(obj)) * objMix
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	return int((h >> 32) * uint64(len(t.rows)) >> 32)
}

// lookup returns the slot holding obj and true, or the slot where a probe
// for obj stops, with the psl obj would have there, and false. The array
// must not be empty.
func (t *objTable) lookup(obj ObjectID) (pos, psl int, ok bool) {
	pos = t.home(obj)
	for psl = 1; ; psl++ {
		r := &t.rows[pos]
		if int(r.psl) < psl {
			return pos, psl, false
		}
		if r.obj == obj {
			return pos, psl, true
		}
		if pos++; pos == len(t.rows) {
			pos = 0
		}
	}
}

// prefetch asks for obj's home slot, where a lookup of obj starts, to be
// loaded into the cache. It changes nothing; an empty table has no slot.
func (t *objTable) prefetch(obj ObjectID) {
	if len(t.rows) > 0 {
		prefetch.Line(unsafe.Pointer(&t.rows[t.home(obj)]))
	}
}

// get returns obj's row, or nil.
func (t *objTable) get(obj ObjectID) *objState {
	if t.n == 0 {
		return nil
	}
	if pos, _, ok := t.lookup(obj); ok {
		return &t.rows[pos]
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

// sorted returns the occupied slots in ascending object order, each in the
// low half of a key whose high half is its row's object id with the sign bit
// flipped, so that sorting the keys as unsigned integers sorts the ids.
func (t *objTable) sorted() []uint64 {
	keys := make([]uint64, 0, t.n)
	for pos := range t.rows {
		if r := &t.rows[pos]; r.psl != 0 {
			keys = append(keys, uint64(uint32(r.obj)^1<<31)<<32|uint64(pos))
		}
	}
	slices.Sort(keys)
	return keys
}

// holds reports whether n rows fit in the probe array at most 7/8 full.
func (t *objTable) holds(n int) bool { return 8*n <= 7*len(t.rows) }

// probeLen returns the probe-array length that n rows fill 3/4 full: two
// slots for a lone row.
func probeLen(n int) int { return (4*n + 2) / 3 }

// insert adds a row. The object must be absent; a second row for one object
// is a caller bug and panics.
func (t *objTable) insert(row objState) {
	t.reserve(t.n + 1)
	pos, psl, ok := t.lookup(row.obj)
	if ok {
		panic("tracker: objTable.insert of an object already present")
	}
	t.place(pos, psl, row)
	t.n++
}

// place puts row, whose object is absent, at slot pos with probe sequence
// length psl, where a probe for it stops. A row nearer its home there is
// displaced and walks on; the walk ends at an empty slot. A psl past the
// byte's range grows the array and places the row afresh.
func (t *objTable) place(pos, psl int, row objState) {
	for {
		if psl > math.MaxUint8 {
			t.resize(2 * len(t.rows))
			pos, psl, _ = t.lookup(row.obj)
			continue
		}
		row.psl = uint8(psl)
		r := &t.rows[pos]
		if r.psl == 0 {
			*r = row
			return
		}
		if int(r.psl) < psl {
			*r, row = row, *r
			psl = int(row.psl)
		}
		psl++
		if pos++; pos == len(t.rows) {
			pos = 0
		}
	}
}

// remove drops obj's row, if present. A table above objSlabMin slots left at
// most a quarter full shrinks; a smaller one keeps its array, even when
// empty.
func (t *objTable) remove(obj ObjectID) {
	if t.n == 0 {
		return
	}
	pos, _, ok := t.lookup(obj)
	if !ok {
		return
	}
	t.unlink(pos)
	t.n--
	if size := len(t.rows); size > objSlabMin && 4*t.n <= size {
		t.resize(probeLen(t.n))
	}
}

// unlink empties slot pos and shifts the rest of its run back one slot,
// each row one step nearer its home.
func (t *objTable) unlink(pos int) {
	for {
		next := pos + 1
		if next == len(t.rows) {
			next = 0
		}
		r := &t.rows[next]
		if r.psl <= 1 {
			break
		}
		t.rows[pos] = *r
		t.rows[pos].psl--
		pos = next
	}
	t.rows[pos] = objState{}
}

// reserve makes room for n rows: a table they would fill beyond 7/8 is
// resized to hold them 3/4 full.
func (t *objTable) reserve(n int) {
	if !t.holds(n) {
		t.resize(probeLen(n))
	}
}

// resize moves the rows into a probe array of size slots.
func (t *objTable) resize(size int) {
	old := t.rows
	t.rows = make([]objState, size)
	for i := range old {
		if r := &old[i]; r.psl != 0 {
			pos, psl, _ := t.lookup(r.obj)
			t.place(pos, psl, *r)
		}
	}
	if len(t.deadlines) == 0 {
		t.trimDeadlines()
	}
}

// insertBatch adds rows — distinct, in any order, and all absent from the
// table — after sizing the array for them once. This is the bulk-attach path;
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
	return t.deadlines[st.dl].at[kind]
}

// wake returns the wakeup ref kept for an armed timer variable of st: 0
// until one is set.
func (t *objTable) wake(st *objState, kind timerKind) int32 {
	return t.deadlines[st.dl].wake[kind]
}

// setWake keeps ref for an armed timer variable of st.
func (t *objTable) setWake(st *objState, kind timerKind, ref int32) {
	t.deadlines[st.dl].wake[kind] = ref
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
			if len(t.deadlines) == cap(t.deadlines) {
				t.growDeadlines()
			}
			t.deadlines = append(t.deadlines, timerSlot{})
		}
	}
	s := &t.deadlines[st.dl]
	if st.tmask&bit == 0 {
		st.tmask |= bit
		t.armed++
		s.wake[kind] = 0
	}
	s.at[kind] = at
}

// slabCap is the most slots the deadline slab grows to: the rows the probe
// array can hold, plus an action's scratch row, fit in it.
func (t *objTable) slabCap() int { return max(len(t.rows), objSlabMin) }

// growDeadlines doubles the full deadline slab's capacity, up to slabCap.
func (t *objTable) growDeadlines() {
	n := len(t.deadlines)
	grown := make([]timerSlot, n, max(min(2*n, t.slabCap()), n+1))
	copy(grown, t.deadlines)
	t.deadlines = grown
}

// freeDeadlines gives deadline slot s back. The last slot in use empties
// the slab (trimDeadlines).
func (t *objTable) freeDeadlines(s int32) {
	if len(t.dlFree)+1 < len(t.deadlines) {
		t.dlFree = append(t.dlFree, s)
		return
	}
	t.deadlines, t.dlFree = t.deadlines[:0], t.dlFree[:0]
	t.trimDeadlines()
}

// trimDeadlines gives back the capacity of an empty deadline slab that
// exceeds slabCap, which only a shrunk probe array leaves behind.
func (t *objTable) trimDeadlines() {
	if cap(t.deadlines) > t.slabCap() {
		t.deadlines, t.dlFree = nil, nil
	}
}
