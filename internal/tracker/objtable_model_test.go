package tracker

import (
	"slices"

	"vinestalk/internal/sim"
)

// pagedTable is the object table as it was before the slab — value rows
// sorted by ObjectID in a two-level paged layout, found by two binary
// searches and shifted on every insert and remove — kept as the reference
// model the slab is checked against. Apart from the names of the type and
// of its row it is the retired objtable.go verbatim.

// modelRow is the row the model holds: the state vector as it was before
// the deadline slab, with the four timer variables inline and ∞ where
// unset, and its pointers the table's one-byte indices.
type modelRow struct {
	obj ObjectID

	c         hoodIdx
	p         hoodIdx
	nbrptup   hoodIdx
	nbrptdown hoodIdx

	finding bool

	deadlines [numTimerKinds]sim.Time
}

// newModelRow returns the initial (quiescent) model row for obj.
func newModelRow(obj ObjectID) modelRow {
	return modelRow{
		obj:       obj,
		deadlines: [numTimerKinds]sim.Time{sim.Forever, sim.Forever, sim.Forever, sim.Forever},
	}
}

// modelOf returns a table row, with its deadlines read through the table, as
// the model holds it.
func modelOf(t *objTable, st *objState) modelRow {
	m := modelRow{obj: st.obj, c: st.c, p: st.p, nbrptup: st.nbrptup, nbrptdown: st.nbrptdown, finding: st.finding}
	for kind := timerKind(0); kind < numTimerKinds; kind++ {
		m.deadlines[kind] = t.deadline(st, kind)
	}
	return m
}

// Page geometry of pagedTable. A page never holds more than objPageRows rows;
// pages built in bulk from sorted input are cut at objPageFill so each has
// room for inserts before its first split; two adjacent pages are merged
// when together they fit in objPageMerge rows.
const (
	objPageRows  = 256
	objPageFill  = objPageRows * 3 / 4
	objPageMerge = objPageRows / 2
)

// pagedTable is the per-process object-state table: value rows sorted by
// ObjectID in a two-level paged layout. first[i] is the smallest key of
// pages[i]; a lookup binary-searches first and then the page's contiguous
// keys, so it touches two small arrays and one row however many objects the
// process tracks, and an insert or remove shifts at most one page. Rows and
// keys are pointer-free, so the pages are never scanned by the collector.
//
// A *modelRow obtained from get or each points into a page and is valid
// only until the next insert, remove or insertBatch on the table.
type pagedTable struct {
	first []ObjectID
	pages []objPage
	n     int
}

// objPage is one run of consecutive rows; keys[i] == rows[i].obj. Both
// slices share one capacity, which reserve doubles up to objPageRows.
type objPage struct {
	keys []ObjectID
	rows []modelRow
}

// lowerBound returns the first index whose key is >= obj.
func lowerBound(keys []ObjectID, obj ObjectID) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] < obj {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// find locates obj: the page that holds it or would receive it, the row
// index there, and whether it is present (never, in an empty table).
func (t *pagedTable) find(obj ObjectID) (pi, ri int, ok bool) {
	pi = lowerBound(t.first, obj)
	if pi < len(t.first) && t.first[pi] == obj {
		return pi, 0, true
	}
	if pi == 0 {
		return 0, 0, false // below every key: would lead page 0
	}
	pi--
	keys := t.pages[pi].keys
	ri = lowerBound(keys, obj)
	return pi, ri, ri < len(keys) && keys[ri] == obj
}

// get returns obj's row, or nil.
func (t *pagedTable) get(obj ObjectID) *modelRow {
	if pi, ri, ok := t.find(obj); ok {
		return &t.pages[pi].rows[ri]
	}
	return nil
}

// len returns the number of rows.
func (t *pagedTable) len() int { return t.n }

// each calls fn on every row in ascending object order. fn may modify the
// row but not the table.
func (t *pagedTable) each(fn func(*modelRow)) {
	for pi := range t.pages {
		rows := t.pages[pi].rows
		for i := range rows {
			fn(&rows[i])
		}
	}
}

// reserve makes room for n rows in the page.
func (pg *objPage) reserve(n int) {
	c := cap(pg.keys)
	if n <= c {
		return
	}
	for c < n {
		c = max(2*c, 4)
	}
	pg.realloc(min(c, objPageRows))
}

// realloc moves the page's rows into arrays of capacity c.
func (pg *objPage) realloc(c int) {
	pg.keys = append(make([]ObjectID, 0, c), pg.keys...)
	pg.rows = append(make([]modelRow, 0, c), pg.rows...)
}

// insert adds a row at its sorted position. The object must be absent; a
// second row for one object is a caller bug and panics.
func (t *pagedTable) insert(row modelRow) {
	t.n++
	if len(t.pages) == 0 {
		t.first = append(t.first, row.obj)
		t.pages = append(t.pages, objPage{keys: []ObjectID{row.obj}, rows: []modelRow{row}})
		return
	}
	pi, ri, ok := t.find(row.obj)
	if ok {
		panic("tracker: objTable.insert of an object already present")
	}
	if half := objPageRows / 2; len(t.pages[pi].keys) == objPageRows {
		t.split(pi, half)
		if ri > half {
			pi, ri = pi+1, ri-half
		}
	}
	pg := &t.pages[pi]
	pg.reserve(len(pg.keys) + 1)
	pg.keys = slices.Insert(pg.keys, ri, row.obj)
	pg.rows = slices.Insert(pg.rows, ri, row)
	if ri == 0 {
		t.first[pi] = row.obj
	}
}

// split moves the rows of page pi from index at on into a new page pi+1.
func (t *pagedTable) split(pi, at int) {
	pg := &t.pages[pi]
	right := objPage{
		keys: append(make([]ObjectID, 0, objPageRows), pg.keys[at:]...),
		rows: append(make([]modelRow, 0, objPageRows), pg.rows[at:]...),
	}
	pg.keys, pg.rows = pg.keys[:at], pg.rows[:at]
	t.first = slices.Insert(t.first, pi+1, right.keys[0])
	t.pages = slices.Insert(t.pages, pi+1, right)
}

// remove drops obj's row, if present. A page left empty is dropped, one left
// small is merged with a neighbour it fits with, and one left at a quarter
// of its capacity gives half of it back, so a table's footprint follows its
// current row count.
func (t *pagedTable) remove(obj ObjectID) {
	pi, ri, ok := t.find(obj)
	if !ok {
		return
	}
	t.n--
	pg := &t.pages[pi]
	pg.keys = slices.Delete(pg.keys, ri, ri+1)
	pg.rows = slices.Delete(pg.rows, ri, ri+1)
	n := len(pg.keys)
	if n == 0 {
		t.first = slices.Delete(t.first, pi, pi+1)
		t.pages = slices.Delete(t.pages, pi, pi+1)
		return
	}
	if ri == 0 {
		t.first[pi] = pg.keys[0]
	}
	switch {
	case pi+1 < len(t.pages) && n+len(t.pages[pi+1].keys) <= objPageMerge:
		t.merge(pi)
	case pi > 0 && len(t.pages[pi-1].keys)+n <= objPageMerge:
		t.merge(pi - 1)
	default:
		if c := cap(pg.keys); c > 4 && n <= c/4 {
			pg.realloc(c / 2)
		}
	}
}

// merge appends page pi+1 to page pi and drops it.
func (t *pagedTable) merge(pi int) {
	pg, next := &t.pages[pi], &t.pages[pi+1]
	pg.reserve(len(pg.keys) + len(next.keys))
	pg.keys = append(pg.keys, next.keys...)
	pg.rows = append(pg.rows, next.rows...)
	t.first = slices.Delete(t.first, pi+1, pi+2)
	t.pages = slices.Delete(t.pages, pi+1, pi+2)
}

// push appends a row whose object is above every key in the table — the
// bulk path for input that arrives sorted (DecodeRegion, insertBatch).
// total is the number of rows the table will hold when the caller is done;
// it sizes each new page exactly, cut at objPageFill. A row out of order is
// a caller bug and panics.
func (t *pagedTable) push(row modelRow, total int) {
	last := len(t.pages) - 1
	if last >= 0 {
		if keys := t.pages[last].keys; keys[len(keys)-1] >= row.obj {
			panic("tracker: objTable.push out of ascending order")
		}
	}
	if last < 0 || len(t.pages[last].keys) == objPageFill {
		c := max(min(total-t.n, objPageFill), 1)
		t.first = append(t.first, row.obj)
		t.pages = append(t.pages, objPage{keys: make([]ObjectID, 0, c), rows: make([]modelRow, 0, c)})
		last++
	}
	pg := &t.pages[last]
	pg.reserve(len(pg.keys) + 1)
	pg.keys = append(pg.keys, row.obj)
	pg.rows = append(pg.rows, row)
	t.n++
}

// insertBatch merges rows — sorted ascending by obj, distinct, and all
// absent from the table — by rebuilding the pages in one pass over both
// inputs: O(n+k) row copies instead of k searches and page shifts. This is
// the bulk-attach path; a duplicate object is a caller bug and panics.
func (t *pagedTable) insertBatch(rows []modelRow) {
	if len(rows) == 0 {
		return
	}
	total := t.n + len(rows)
	var merged pagedTable
	j := 0
	t.each(func(st *modelRow) {
		for ; j < len(rows) && rows[j].obj < st.obj; j++ {
			merged.push(rows[j], total)
		}
		if j < len(rows) && rows[j].obj == st.obj {
			panic("tracker: insertBatch object already present")
		}
		merged.push(*st, total)
	})
	for ; j < len(rows); j++ {
		merged.push(rows[j], total)
	}
	*t = merged
}
