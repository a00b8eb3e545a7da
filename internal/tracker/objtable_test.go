package tracker

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"vinestalk/internal/sim"
)

// checkObjTable compares the table with the paged reference model and with a
// map (object → the c value its row was stored with), and checks the probe
// array's invariants: each yields the model's rows, every deadline read
// through the table, in the model's order, which is ascending; the array is
// at most 7/8 full and holds len() rows; every row's psl is one more than its
// distance from its home slot, and every slot from its home up to it holds a
// row at least as far from its own home as a probe for it would be there, so
// a lookup reaches it. It then checks the deadline slab (checkDeadlines).
func checkObjTable(t *testing.T, step int, tab *objTable, model *pagedTable, ref map[ObjectID]hoodIdx) {
	t.Helper()
	if tab.len() != len(ref) || model.len() != len(ref) {
		t.Fatalf("step %d: len() = %d, model %d, reference %d", step, tab.len(), model.len(), len(ref))
	}
	var got, want []modelRow
	tab.each(func(st *objState) { got = append(got, modelOf(tab, st)) })
	model.each(func(m *modelRow) { want = append(want, *m) })
	if !slices.Equal(got, want) {
		t.Fatalf("step %d: each yields %v,\nmodel %v", step, got, want)
	}
	for i, st := range got {
		if i > 0 && got[i-1].obj >= st.obj {
			t.Fatalf("step %d: each yields %d after %d", step, st.obj, got[i-1].obj)
		}
		if c, ok := ref[st.obj]; !ok || c != st.c {
			t.Fatalf("step %d: object %d iterates with c=%v, reference %v (held %v)", step, st.obj, st.c, c, ok)
		}
	}
	size := len(tab.rows)
	if !tab.holds(tab.len()) {
		t.Fatalf("step %d: %d rows in a probe array of %d slots", step, tab.len(), size)
	}
	occupied := 0
	for pos := range tab.rows {
		r := &tab.rows[pos]
		if r.psl == 0 {
			continue
		}
		occupied++
		home := tab.home(r.obj)
		if want := (pos-home+size)%size + 1; int(r.psl) != want {
			t.Fatalf("step %d: object %d at slot %d (home %d) has psl %d, want %d", step, r.obj, pos, home, r.psl, want)
		}
		for d := 1; d < int(r.psl); d++ {
			if q := &tab.rows[(home+d-1)%size]; int(q.psl) < d {
				t.Fatalf("step %d: object %d at slot %d is cut off from its home %d by slot %d (psl %d)", step, r.obj, pos, home, (home+d-1)%size, q.psl)
			}
		}
	}
	if occupied != tab.len() {
		t.Fatalf("step %d: %d occupied slots for %d rows", step, occupied, tab.len())
	}
	checkDeadlines(t, step, tab)
}

// checkDeadlines checks the deadline slab's accounting when no scratch row
// is out: each row with a finite deadline holds its own slot in range, the
// slots in use are exactly those rows' slots, the free list holds each other
// slot once, armed is the number of tmask bits set, no bit above the timer
// kinds is set, and a table with no armed row holds an empty slab whose
// capacity is at most slabCap.
func checkDeadlines(t *testing.T, step int, tab *objTable) {
	t.Helper()
	owner := make(map[int32]ObjectID)
	armed := 0
	for pos := range tab.rows {
		st := &tab.rows[pos]
		if st.psl == 0 {
			continue
		}
		if st.tmask>>numTimerKinds != 0 {
			t.Fatalf("step %d: object %d has timer bits %#b", step, st.obj, st.tmask)
		}
		if st.tmask == 0 {
			continue
		}
		armed += bits.OnesCount8(st.tmask)
		if st.dl < 0 || int(st.dl) >= len(tab.deadlines) {
			t.Fatalf("step %d: object %d holds deadline slot %d of %d", step, st.obj, st.dl, len(tab.deadlines))
		}
		if o, dup := owner[st.dl]; dup {
			t.Fatalf("step %d: objects %d and %d share deadline slot %d", step, o, st.obj, st.dl)
		}
		owner[st.dl] = st.obj
	}
	if armed != tab.armed {
		t.Fatalf("step %d: %d deadlines armed, the table counts %d", step, armed, tab.armed)
	}
	if inUse := len(tab.deadlines) - len(tab.dlFree); inUse != len(owner) {
		t.Fatalf("step %d: %d deadline slots in use (%d, %d free) for %d armed rows", step, inUse, len(tab.deadlines), len(tab.dlFree), len(owner))
	}
	freed := make(map[int32]bool)
	for _, s := range tab.dlFree {
		if s < 0 || int(s) >= len(tab.deadlines) || freed[s] {
			t.Fatalf("step %d: deadline free list %v of %d slots is out of range or repeats %d", step, tab.dlFree, len(tab.deadlines), s)
		}
		if o, live := owner[s]; live {
			t.Fatalf("step %d: deadline free list holds slot %d of object %d", step, s, o)
		}
		freed[s] = true
	}
	if len(owner) == 0 && (len(tab.deadlines) != 0 || cap(tab.deadlines) > tab.slabCap()) {
		t.Fatalf("step %d: no row armed, yet the deadline slab holds %d slots of %d (at most %d kept)",
			step, len(tab.deadlines), cap(tab.deadlines), tab.slabCap())
	}
}

// TestObjTableMatchesReference drives random insert / remove / get /
// insertBatch, writes through get's pointer, and timer arms, clears and
// re-arms, against the paged sorted reference table (whose rows keep the
// four deadlines inline) and a map, checking every invariant as it goes. The
// timer writes land on held rows and on scratch rows, the rows an action runs
// against before leave inserts them, or drops them once their timers are
// clear again; some arm a timer and clear it within one action. The key space
// includes object 0 and both ends of the id range; a round fills the table,
// drains it to a quarter (compacting it on the way) and then to empty, and
// the second round refills it.
func TestObjTableMatchesReference(t *testing.T) {
	for _, span := range []int{40, 3 * 256, 40 * 256} {
		rng := rand.New(rand.NewSource(int64(span)))
		var tab objTable
		var model pagedTable
		ref := make(map[ObjectID]hoodIdx)
		randObj := func() ObjectID {
			switch rng.Intn(64) {
			case 0:
				return 0
			case 1:
				return math.MinInt32
			case 2:
				return math.MaxInt32
			}
			return ObjectID(rng.Intn(span) - span/2)
		}
		// row returns a new row for obj and the model's copy, with a random c.
		row := func(obj ObjectID) (objState, modelRow) {
			st, m := objState{obj: obj}, newModelRow(obj)
			st.c = hoodIdx(rng.Intn(1 << 8))
			m.c, ref[obj] = st.c, st.c
			return st, m
		}
		// timers runs the timer writes of one action on a row and its model.
		timers := func(st *objState, m *modelRow) {
			for n := 1 + rng.Intn(3); n > 0; n-- {
				kind, at := timerKind(rng.Intn(int(numTimerKinds))), sim.Forever
				if rng.Intn(3) > 0 {
					at = sim.Time(rng.Int63n(1 << 40))
				}
				tab.setDeadline(st, kind, at)
				m.deadlines[kind] = at
			}
			if rng.Intn(4) == 0 {
				kind := timerKind(rng.Intn(int(numTimerKinds)))
				tab.setDeadline(st, kind, sim.Time(rng.Int63n(1<<40)))
				tab.setDeadline(st, kind, sim.Forever)
				m.deadlines[kind] = sim.Forever
			}
		}
		clearTimers := func(st *objState) {
			for kind := timerKind(0); kind < numTimerKinds; kind++ {
				tab.setDeadline(st, kind, sim.Forever)
			}
		}
		compacted, peak := 0, 0
		remove := func(obj ObjectID) {
			before := len(tab.rows)
			if st := tab.get(obj); st != nil {
				clearTimers(st) // a row leaves the table only once quiescent
			}
			tab.remove(obj) // an absent object too: a no-op
			model.remove(obj)
			delete(ref, obj)
			if len(tab.rows) < before {
				compacted++
			}
		}
		for round := 0; round < 2; round++ {
			// The first half fills about three quarters of the key space, the
			// second drains it to a quarter.
			steps := 20 * span
			for step := 0; step < steps; step++ {
				obj := randObj()
				_, held := ref[obj]
				st, mst := tab.get(obj), model.get(obj)
				switch {
				case (st != nil) != held || (mst != nil) != held:
					t.Fatalf("step %d: get(%d) = %v, model %v, reference holds it: %v", step, obj, st, mst, held)
				case held && (modelOf(&tab, st) != *mst || st.obj != obj || st.c != ref[obj]):
					t.Fatalf("step %d: get(%d) returned %+v, model %+v, reference c=%v", step, obj, modelOf(&tab, st), *mst, ref[obj])
				case held && rng.Intn(8) == 0:
					c := hoodIdx(rng.Intn(1 << 8))
					st.c, mst.c, ref[obj] = c, c, c
				case held && rng.Intn(3) == 0:
					timers(st, mst)
				}
				grow := 3
				if step >= steps/2 {
					grow = 1
				}
				switch fill := rng.Intn(4) < grow; {
				case !held && fill:
					r, m := row(obj)
					if rng.Intn(2) == 0 {
						timers(&r, &m) // on the scratch row, before leave inserts it
					}
					tab.insert(r)
					model.insert(m)
				case !fill:
					if !held {
						// An action that leaves its scratch row quiescent:
						// what it armed it cleared again, and the row is
						// dropped.
						scratch, m := objState{obj: obj}, newModelRow(obj)
						timers(&scratch, &m)
						clearTimers(&scratch)
					}
					remove(obj)
				}
				peak = max(peak, len(tab.deadlines)-len(tab.dlFree))
				if step%(1+steps/40) == 0 {
					var batch []objState
					var mbatch []modelRow
					for n := rng.Intn(512); n > 0; n-- {
						if obj := randObj(); !slices.ContainsFunc(batch, func(st objState) bool { return st.obj == obj }) {
							if _, held := ref[obj]; !held {
								r, m := row(obj)
								batch, mbatch = append(batch, r), append(mbatch, m)
							}
						}
					}
					tab.insertBatch(batch) // in arrival order
					slices.SortFunc(mbatch, func(a, b modelRow) int { return cmp.Compare(a.obj, b.obj) })
					model.insertBatch(mbatch)
					checkObjTable(t, step, &tab, &model, ref)
				} else if step == steps/2 || step == steps-1 {
					checkObjTable(t, step, &tab, &model, ref)
				}
			}
			for obj := range ref {
				remove(obj)
			}
			checkObjTable(t, steps, &tab, &model, ref)
			if len(tab.rows) > objSlabMin {
				t.Fatalf("span %d: drained table keeps a probe array of %d", span, len(tab.rows))
			}
		}
		if span > 40 && compacted == 0 {
			t.Fatalf("span %d: no remove shrank the probe array", span)
		}
		if span > 40 && peak <= 4*objSlabMin {
			t.Fatalf("span %d: at most %d rows armed at once; the deadline slab was never exercised", span, peak)
		}
	}
}

// TestObjTableReserveSizesTheSlabOnce checks the bulk path DecodeRegion
// and insertBatch take: reserve sizes the probe array for the announced total
// at 3/4 full, inserts in any order then never reallocate it, and the table
// takes further inserts anywhere.
func TestObjTableReserveSizesTheSlabOnce(t *testing.T) {
	const total = 5*192 + 7
	var tab objTable
	var model pagedTable
	ref := make(map[ObjectID]hoodIdx)
	tab.reserve(total)
	if size := len(tab.rows); size < total*4/3 || size > total*4/3+1 {
		t.Fatalf("a probe array reserved for %d rows has %d slots", total, size)
	}
	first := &tab.rows[0]
	for _, i := range rand.New(rand.NewSource(1)).Perm(total) {
		obj := ObjectID(2*i - total)
		tab.insert(objState{obj: obj})
		model.insert(newModelRow(obj))
		ref[obj] = hoodNone
		if first != &tab.rows[0] {
			t.Fatalf("insert of row %d of %d reallocated the probe array", tab.len(), total)
		}
	}
	checkObjTable(t, 0, &tab, &model, ref)
	for i := 0; i < total; i++ {
		obj := ObjectID(2*i - total + 1)
		tab.insert(objState{obj: obj})
		model.insert(newModelRow(obj))
		ref[obj] = hoodNone
	}
	checkObjTable(t, 1, &tab, &model, ref)
}

// TestObjTableProbesStayShort builds tables from structured id families —
// sequential ids, strides of 2^k, a negative range, ids that share their low
// 16 bits — and requires every row to be found within a few slots of its
// home: on average within three times what linear probing of random keys
// takes at the table's load α, ½(1 + 1/(1−α)). (Over 3 000 draws of the mix
// the worst family of 256 ids read 2.4 times that, of 4 096 ids 1.7 times.)
// The mix multiplier is drawn per process, so this holds for whichever one
// this run drew; a linear probe of such ids without the mix would put whole
// families into one run.
func TestObjTableProbesStayShort(t *testing.T) {
	const n = 1 << 12
	type family struct {
		name  string
		count int
		id    func(i int) ObjectID
	}
	families := []family{
		{"sequential", n, func(i int) ObjectID { return ObjectID(i) }},
		{"negative", n, func(i int) ObjectID { return ObjectID(-1 - i) }},
		{"low 16 bits shared", n, func(i int) ObjectID { return ObjectID(uint32(i)<<16 | 0xBEEF) }},
	}
	for k := 1; k <= 24; k++ {
		// Only 2^(32-k) ids are distinct at stride 2^k.
		families = append(families, family{fmt.Sprintf("stride 2^%d", k), min(n, 1<<(32-k)),
			func(i int) ObjectID { return ObjectID(uint32(i) << k) }})
	}
	for _, f := range families {
		name, count := f.name, f.count
		var tab objTable
		for i := 0; i < count; i++ {
			tab.insert(objState{obj: f.id(i)})
		}
		longest, total := 0, 0
		for _, r := range tab.rows {
			longest, total = max(longest, int(r.psl)), total+int(r.psl)
		}
		load := float64(count) / float64(len(tab.rows))
		bound := 3 * (1 + 1/(1-load)) / 2
		if mean := float64(total) / float64(count); longest > 96 || mean > bound {
			t.Errorf("%s: %d ids at load %.2f found in at most %d probes, %.2f on average; want ≤ 96 and ≤ %.2f", name, count, load, longest, mean, bound)
		}
	}
}

// TestObjTableGrowsPastALongRun puts 300 rows into one probe run — ids that
// share a home slot, found by search for whichever mix this run drew — which
// is longer than a row's psl byte can count. The table must grow instead of
// letting the count wrap: every row is found again and every invariant
// holds.
func TestObjTableGrowsPastALongRun(t *testing.T) {
	var tab objTable
	var model pagedTable
	ref := make(map[ObjectID]hoodIdx)
	tab.reserve(400)
	size := len(tab.rows)
	var ids []ObjectID
	for obj := ObjectID(0); len(ids) < 300; obj++ {
		if tab.home(obj) == 0 {
			ids = append(ids, obj)
		}
	}
	for _, obj := range ids {
		tab.insert(objState{obj: obj})
		model.insert(newModelRow(obj))
		ref[obj] = hoodNone
	}
	if len(tab.rows) == size {
		t.Fatalf("%d rows sharing a home slot left the probe array at %d slots", len(ids), size)
	}
	for _, obj := range ids {
		if tab.get(obj) == nil {
			t.Fatalf("object %d is lost", obj)
		}
	}
	checkObjTable(t, 0, &tab, &model, ref)
}

// The message path's table operations allocate nothing once the table is
// warm: a get, a remove followed by the re-insert of the same object, and
// the one-row table that empties and refills on every move of a lone object.
func TestObjTableSteadyStateAllocatesNothing(t *testing.T) {
	const rows = 10_000
	var tab objTable
	for i := 0; i < rows; i++ {
		tab.insert(objState{obj: ObjectID(i * 7)})
	}
	i := 0
	next := func() ObjectID { i = (i + 1) % rows; return ObjectID(i * 7) }
	if got := testing.AllocsPerRun(1000, func() {
		if tab.get(next()) == nil {
			t.Fatal("row missing")
		}
	}); got != 0 {
		t.Errorf("get allocated %v times, want 0", got)
	}
	if got := testing.AllocsPerRun(1000, func() {
		obj := next()
		tab.remove(obj)
		tab.insert(objState{obj: obj})
	}); got != 0 {
		t.Errorf("remove + insert allocated %v times, want 0", got)
	}
	var one objTable
	one.insert(objState{obj: 5})
	if got := testing.AllocsPerRun(1000, func() {
		one.remove(5)
		one.insert(objState{obj: 5})
	}); got != 0 {
		t.Errorf("emptying and refilling a one-row table allocated %v times, want 0", got)
	}
}

// Arming and clearing timers allocates nothing once the deadline slab is
// warm: on the big table, cycles of 32 rows armed then cleared while a
// standing set of rows keeps a lease armed throughout, then cycles of
// objSlabMin rows with nothing else armed, which the slab keeps however
// often it empties; and the lone object's table, which goes from no row to
// one with its grow timer armed and back on every move.
func TestObjTableDeadlinesAllocateNothing(t *testing.T) {
	const rows, standing = 10_000, 100
	var tab objTable
	for i := 0; i < rows; i++ {
		tab.insert(objState{obj: ObjectID(i)})
	}
	for i := 0; i < standing; i++ {
		tab.setDeadline(tab.get(ObjectID(i)), timerLease, sim.Time(i))
	}
	at := sim.Time(0)
	cycle := func(first, n int) {
		for i := first; i < first+n; i++ {
			at++
			st := tab.get(ObjectID(i))
			tab.setDeadline(st, timerGrowShrink, at)
			if i%2 == 0 {
				tab.setDeadline(st, timerNbrTimeout, at+1)
			}
		}
		for i := first; i < first+n; i++ {
			st := tab.get(ObjectID(i))
			tab.setDeadline(st, timerNbrTimeout, sim.Forever)
			tab.setDeadline(st, timerGrowShrink, sim.Forever)
		}
	}
	first := 0
	if got := testing.AllocsPerRun(1000, func() {
		first = (first + 32) % (rows - 32)
		cycle(first, 32)
	}); got != 0 {
		t.Errorf("arming and clearing 32 rows beside %d leased ones allocated %v times, want 0", standing, got)
	}
	for i := 0; i < standing; i++ {
		tab.setDeadline(tab.get(ObjectID(i)), timerLease, sim.Forever)
	}
	if got := testing.AllocsPerRun(1000, func() {
		first = (first + objSlabMin) % (rows - objSlabMin)
		cycle(first, objSlabMin)
	}); got != 0 {
		t.Errorf("arming and clearing %d rows of a table with no other timer armed allocated %v times, want 0", objSlabMin, got)
	}
	if tab.armed != 0 || len(tab.deadlines) != 0 || cap(tab.deadlines) < standing {
		t.Fatalf("every timer cleared: %d armed, a deadline slab of %d slots kept of %d", tab.armed, len(tab.deadlines), cap(tab.deadlines))
	}

	var one objTable
	if got := testing.AllocsPerRun(1000, func() {
		at++
		scratch := objState{obj: 5}
		one.setDeadline(&scratch, timerGrowShrink, at)
		one.insert(scratch)
		st := one.get(5)
		one.setDeadline(st, timerGrowShrink, sim.Forever)
		one.remove(5)
	}); got != 0 {
		t.Errorf("a one-row table flipping between no row and one armed row allocated %v times, want 0", got)
	}
}

// A burst of arms that empties again leaves the deadline slab's capacity
// with the table, so the next burst, a fan-out's next lap, allocates
// nothing; the slab goes once the table shrinks below it.
func TestObjTableKeepsDeadlineSlabAcrossLaps(t *testing.T) {
	const rows, armed = 4096, 3000
	var tab objTable
	for i := 0; i < rows; i++ {
		tab.insert(objState{obj: ObjectID(i)})
	}
	lap := func() {
		for i := 0; i < armed; i++ {
			tab.setDeadline(tab.get(ObjectID(i)), timerGrowShrink, sim.Time(i+1))
		}
		for i := 0; i < armed; i++ {
			tab.setDeadline(tab.get(ObjectID(i)), timerGrowShrink, sim.Forever)
		}
	}
	lap()
	if got := testing.AllocsPerRun(100, lap); got != 0 {
		t.Errorf("a lap of %d arms and clears over a kept slab allocated %v times, want 0", armed, got)
	}
	if len(tab.deadlines) != 0 || cap(tab.deadlines) < armed {
		t.Fatalf("after the laps the slab holds %d of %d slots, want 0 of at least %d", len(tab.deadlines), cap(tab.deadlines), armed)
	}
	for i := rows - 1; i >= objSlabMin; i-- {
		tab.remove(ObjectID(i))
	}
	if cap(tab.deadlines) > tab.slabCap() {
		t.Fatalf("a table shrunk to %d slots keeps a slab of %d", len(tab.rows), cap(tab.deadlines))
	}
	checkDeadlines(t, 0, &tab)
}

// TestObjStateIsPointerFree pins what makes the probe array, the deadline
// slab and its free list invisible to the collector and rows movable: no
// pointer, slice, map or interface in a row, a deadline slot or an entry.
func TestObjStateIsPointerFree(t *testing.T) {
	var tab objTable
	for name, typ := range map[string]reflect.Type{
		"objState":                 reflect.TypeOf(tab.rows).Elem(),
		"deadline slot":            reflect.TypeOf(tab.deadlines).Elem(),
		"deadline free-list entry": reflect.TypeOf(tab.dlFree).Elem(),
	} {
		if err := pointerFree(typ); err != "" {
			t.Fatalf("%s: %s", name, err)
		}
	}
}

// TestObjStateSize pins the row at its settled size, 16 bytes, so four rows
// share a 64-byte line and none straddles two: the int32 object id, the
// four one-byte pointers (indices into the process's neighbourhood), the
// finding flag, the timer mask, the probe sequence length and the int32
// deadline slot. A deadline back in the row costs 8 bytes on every row of
// every table, and so would a field that did not fit the padding.
func TestObjStateSize(t *testing.T) {
	if got := unsafe.Sizeof(objState{}); got != 16 {
		t.Fatalf("objState is %d bytes, want 16", got)
	}
}

// pointerFree walks a type and names the first field the collector would
// have to scan, or returns "".
func pointerFree(typ reflect.Type) string {
	var walk func(reflect.Type, string) string
	walk = func(typ reflect.Type, path string) string {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				if err := walk(typ.Field(i).Type, path+"."+typ.Field(i).Name); err != "" {
					return err
				}
			}
		case reflect.Array:
			return walk(typ.Elem(), path+"[]")
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		default:
			return path + " is a " + typ.Kind().String()
		}
		return ""
	}
	return walk(typ, typ.Name())
}
