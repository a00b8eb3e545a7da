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

	"vinestalk/internal/hier"
)

// rowsOf returns a table's rows in the order each yields them.
func rowsOf(each func(func(*objState))) []objState {
	var rows []objState
	each(func(st *objState) { rows = append(rows, *st) })
	return rows
}

// checkObjTable compares the table with the paged reference model and with a
// map (object → the c value its row was stored with), and checks the slab
// invariants: each yields the model's rows in the model's order, which is
// ascending; the index is a power of two at least twice the slab's capacity;
// every live slot is indexed once and reachable from its home entry without
// crossing an empty one; the free slots are exactly the unindexed ones.
func checkObjTable(t *testing.T, step int, tab *objTable, model *pagedTable, ref map[ObjectID]hier.ClusterID) {
	t.Helper()
	if tab.len() != len(ref) || model.len() != len(ref) {
		t.Fatalf("step %d: len() = %d, model %d, reference %d", step, tab.len(), model.len(), len(ref))
	}
	got, want := rowsOf(tab.each), rowsOf(model.each)
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
	size := len(tab.idx)
	if size&(size-1) != 0 || size < 2*cap(tab.rows) || (size > 0 && int(tab.shift) != 64-bits.TrailingZeros(uint(size))) {
		t.Fatalf("step %d: index of %d entries (shift %d) for a slab of capacity %d", step, size, tab.shift, cap(tab.rows))
	}
	if len(tab.rows) != tab.len()+len(tab.free) {
		t.Fatalf("step %d: %d slots for %d rows and %d free", step, len(tab.rows), tab.len(), len(tab.free))
	}
	indexed := make([]bool, len(tab.rows))
	for pos, e := range tab.idx {
		if e == 0 {
			continue
		}
		s := e - 1
		if indexed[s] {
			t.Fatalf("step %d: slot %d indexed twice", step, s)
		}
		indexed[s] = true
		for p := tab.home(tab.rows[s].obj); p != pos; p = (p + 1) % size {
			if tab.idx[p] == 0 {
				t.Fatalf("step %d: slot %d (object %d) at entry %d is cut off from its home by empty entry %d", step, s, tab.rows[s].obj, pos, p)
			}
		}
	}
	for _, s := range tab.free {
		if indexed[s] {
			t.Fatalf("step %d: free slot %d is indexed", step, s)
		}
		indexed[s] = true
	}
	if i := slices.Index(indexed, false); i >= 0 {
		t.Fatalf("step %d: slot %d is neither indexed nor free", step, i)
	}
}

// TestObjTableMatchesReference drives random insert / remove / get /
// insertBatch, and writes through get's pointer, against the paged table the
// slab replaced and a map, checking every invariant as it goes. The key space
// includes object 0 and both ends of the id range; a round fills the table,
// drains it to a quarter (compacting it on the way) and then to empty, and
// the second round refills it.
func TestObjTableMatchesReference(t *testing.T) {
	for _, span := range []int{40, 3 * 256, 40 * 256} {
		rng := rand.New(rand.NewSource(int64(span)))
		var tab objTable
		var model pagedTable
		ref := make(map[ObjectID]hier.ClusterID)
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
		row := func(obj ObjectID) objState {
			st := newObjState(obj)
			st.c = hier.ClusterID(rng.Intn(1 << 20))
			ref[obj] = st.c
			return st
		}
		compacted := 0
		remove := func(obj ObjectID) {
			before := cap(tab.rows)
			tab.remove(obj) // an absent object too: a no-op
			model.remove(obj)
			delete(ref, obj)
			if cap(tab.rows) < before {
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
				case held && (*st != *mst || st.obj != obj || st.c != ref[obj]):
					t.Fatalf("step %d: get(%d) returned %+v, model %+v, reference c=%v", step, obj, *st, *mst, ref[obj])
				case held && rng.Intn(8) == 0:
					c := hier.ClusterID(rng.Intn(1 << 20))
					st.c, mst.c, ref[obj] = c, c, c
				}
				grow := 3
				if step >= steps/2 {
					grow = 1
				}
				switch fill := rng.Intn(4) < grow; {
				case !held && fill:
					r := row(obj)
					tab.insert(r)
					model.insert(r)
				case !fill:
					remove(obj)
				}
				if step%(1+steps/40) == 0 {
					var batch []objState
					for n := rng.Intn(512); n > 0; n-- {
						if obj := randObj(); !slices.ContainsFunc(batch, func(st objState) bool { return st.obj == obj }) {
							if _, held := ref[obj]; !held {
								batch = append(batch, row(obj))
							}
						}
					}
					tab.insertBatch(batch) // in arrival order
					slices.SortFunc(batch, func(a, b objState) int { return cmp.Compare(a.obj, b.obj) })
					model.insertBatch(batch)
					checkObjTable(t, step, &tab, &model, ref)
				} else if step == steps/2 || step == steps-1 {
					checkObjTable(t, step, &tab, &model, ref)
				}
			}
			for obj := range ref {
				remove(obj)
			}
			checkObjTable(t, steps, &tab, &model, ref)
			if cap(tab.rows) > objSlabMin {
				t.Fatalf("span %d: drained table keeps a slab of %d", span, cap(tab.rows))
			}
		}
		if span > 40 && compacted == 0 {
			t.Fatalf("span %d: no remove compacted the slab", span)
		}
	}
}

// TestObjTableReserveSizesTheSlabOnce checks the bulk path DecodeRegion
// takes: reserve sizes the slab for the announced total, inserts in any order
// then never move a row, and the table takes further inserts anywhere.
func TestObjTableReserveSizesTheSlabOnce(t *testing.T) {
	const total = 5*192 + 7
	var tab objTable
	var model pagedTable
	ref := make(map[ObjectID]hier.ClusterID)
	tab.reserve(total)
	if c := cap(tab.rows); c < total || c > total+total/4 {
		t.Fatalf("a slab reserved for %d rows has capacity %d", total, c)
	}
	var first *objState
	for _, i := range rand.New(rand.NewSource(1)).Perm(total) {
		obj := ObjectID(2*i - total)
		tab.insert(newObjState(obj))
		model.insert(newObjState(obj))
		ref[obj] = hier.NoCluster
		if first == nil {
			first = &tab.rows[0]
		} else if first != &tab.rows[0] {
			t.Fatalf("insert of row %d of %d moved the slab", tab.len(), total)
		}
	}
	checkObjTable(t, 0, &tab, &model, ref)
	for i := 0; i < total; i++ {
		obj := ObjectID(2*i - total + 1)
		tab.insert(newObjState(obj))
		model.insert(newObjState(obj))
		ref[obj] = hier.NoCluster
	}
	checkObjTable(t, 1, &tab, &model, ref)
}

// TestObjTableProbesStayShort builds tables from structured id families —
// sequential ids, strides of 2^k, a negative range, ids that share their low
// 16 bits — and requires every row to be found within a few index entries of
// its home. The mix multiplier is drawn per process, so this holds for
// whichever one this run drew; a linear probe of such ids without the mix
// would put whole families into one run.
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
			tab.insert(newObjState(f.id(i)))
		}
		longest, total := 0, 0
		for pos, e := range tab.idx {
			if e != 0 {
				probes := (pos-tab.home(tab.rows[e-1].obj))&(len(tab.idx)-1) + 1
				longest, total = max(longest, probes), total+probes
			}
		}
		if mean := float64(total) / float64(count); longest > 96 || mean > 3 {
			t.Errorf("%s: %d ids found in at most %d probes, %.2f on average; want ≤ 96 and ≤ 3", name, count, longest, mean)
		}
	}
}

// The message path's table operations allocate nothing once the table is
// warm: a get, a remove followed by the re-insert of the same object, and
// the one-row table that empties and refills on every move of a lone object.
func TestObjTableSteadyStateAllocatesNothing(t *testing.T) {
	const rows = 10_000
	var tab objTable
	for i := 0; i < rows; i++ {
		tab.insert(newObjState(ObjectID(i * 7)))
	}
	tab.remove(0) // warm-up: the free list
	tab.insert(newObjState(0))
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
		tab.insert(newObjState(obj))
	}); got != 0 {
		t.Errorf("remove + insert allocated %v times, want 0", got)
	}
	var one objTable
	one.insert(newObjState(5))
	if got := testing.AllocsPerRun(1000, func() {
		one.remove(5)
		one.insert(newObjState(5))
	}); got != 0 {
		t.Errorf("emptying and refilling a one-row table allocated %v times, want 0", got)
	}
}

// TestObjStateIsPointerFree pins what makes the slab, its index and its free
// list invisible to the collector and rows movable: no pointer, slice, map or
// interface in a row or an entry.
func TestObjStateIsPointerFree(t *testing.T) {
	var tab objTable
	for name, typ := range map[string]reflect.Type{
		"objState":        reflect.TypeOf(tab.rows).Elem(),
		"index entry":     reflect.TypeOf(tab.idx).Elem(),
		"free-list entry": reflect.TypeOf(tab.free).Elem(),
	} {
		if err := pointerFree(typ); err != "" {
			t.Fatalf("%s: %s", name, err)
		}
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
