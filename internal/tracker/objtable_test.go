package tracker

import (
	"cmp"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"vinestalk/internal/hier"
)

// checkObjTable compares the table with the reference (object → the c value
// its row was stored with) and checks the page invariants: ascending
// iteration equal to the sorted reference, directory keys equal to page
// heads, page keys equal to row objects, no empty page, no page above
// objPageRows, len() exact.
func checkObjTable(t *testing.T, step int, tab *objTable, ref map[ObjectID]hier.ClusterID) {
	t.Helper()
	want := make([]ObjectID, 0, len(ref))
	for obj := range ref {
		want = append(want, obj)
	}
	slices.Sort(want)
	if tab.len() != len(want) {
		t.Fatalf("step %d: len() = %d, want %d", step, tab.len(), len(want))
	}
	var got []ObjectID
	tab.each(func(st *objState) {
		got = append(got, st.obj)
		if st.c != ref[st.obj] {
			t.Fatalf("step %d: object %d iterates with c=%v, stored %v", step, st.obj, st.c, ref[st.obj])
		}
	})
	if !slices.Equal(got, want) {
		t.Fatalf("step %d: iteration %v, want %v", step, got, want)
	}
	if len(tab.first) != len(tab.pages) {
		t.Fatalf("step %d: %d directory keys for %d pages", step, len(tab.first), len(tab.pages))
	}
	for pi, pg := range tab.pages {
		switch n := len(pg.keys); {
		case n == 0:
			t.Fatalf("step %d: page %d is empty", step, pi)
		case n > objPageRows:
			t.Fatalf("step %d: page %d holds %d rows, limit %d", step, pi, n, objPageRows)
		case n != len(pg.rows):
			t.Fatalf("step %d: page %d has %d keys for %d rows", step, pi, n, len(pg.rows))
		}
		if tab.first[pi] != pg.keys[0] {
			t.Fatalf("step %d: directory key %d is %d, page head %d", step, pi, tab.first[pi], pg.keys[0])
		}
		for i, key := range pg.keys {
			if pg.rows[i].obj != key {
				t.Fatalf("step %d: page %d key %d is %d, row object %d", step, pi, i, key, pg.rows[i].obj)
			}
		}
	}
}

// TestObjTableMatchesReference drives random insert / remove / get /
// insertBatch against a map and checks every invariant as it goes. The key
// space is small enough that pages split, merge, empty and shrink many times
// over, and includes object 0, negative ids and both ends of the id range.
func TestObjTableMatchesReference(t *testing.T) {
	for _, span := range []int{40, 3 * objPageRows, 40 * objPageRows} {
		rng := rand.New(rand.NewSource(int64(span)))
		var tab objTable
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
		// The first half fills about three quarters of the key space, the
		// second drains it to a quarter.
		steps := 20 * span
		for step := 0; step < steps; step++ {
			obj := randObj()
			_, held := ref[obj]
			if st := tab.get(obj); (st != nil) != held {
				t.Fatalf("step %d: get(%d) = %v, reference holds it: %v", step, obj, st, held)
			} else if held && (st.obj != obj || st.c != ref[obj]) {
				t.Fatalf("step %d: get(%d) returned object %d c=%v, stored %v", step, obj, st.obj, st.c, ref[obj])
			}
			grow := 3
			if step >= steps/2 {
				grow = 1
			}
			switch fill := rng.Intn(4) < grow; {
			case !held && fill:
				tab.insert(row(obj))
			case !fill:
				tab.remove(obj) // an absent object too: a no-op
				delete(ref, obj)
			}
			if step%97 == 0 {
				var batch []objState
				for n := rng.Intn(2 * objPageRows); n > 0; n-- {
					if obj := randObj(); !slices.ContainsFunc(batch, func(st objState) bool { return st.obj == obj }) {
						if _, held := ref[obj]; !held {
							batch = append(batch, row(obj))
						}
					}
				}
				slices.SortFunc(batch, func(a, b objState) int { return cmp.Compare(a.obj, b.obj) })
				tab.insertBatch(batch)
			}
			if step%(1+span/4) == 0 || step == steps-1 {
				checkObjTable(t, step, &tab, ref)
			}
		}
		for obj := range ref {
			tab.remove(obj)
			delete(ref, obj)
		}
		checkObjTable(t, steps, &tab, ref)
		if len(tab.pages) != 0 {
			t.Fatalf("span %d: drained table keeps %d pages", span, len(tab.pages))
		}
	}
}

// TestObjTablePushBuildsFilledPages checks the sorted bulk path: pages cut at
// objPageFill, sized exactly, and a table that then takes inserts anywhere.
func TestObjTablePushBuildsFilledPages(t *testing.T) {
	const total = 5*objPageFill + 7
	var tab objTable
	ref := make(map[ObjectID]hier.ClusterID)
	for i := 0; i < total; i++ {
		obj := ObjectID(2*i - total)
		tab.push(newObjState(obj), total)
		ref[obj] = hier.NoCluster
	}
	checkObjTable(t, 0, &tab, ref)
	if len(tab.pages) != 6 {
		t.Fatalf("%d rows pushed into %d pages, want 6", total, len(tab.pages))
	}
	for pi, pg := range tab.pages {
		if want := min(objPageFill, total-pi*objPageFill); len(pg.keys) != want || cap(pg.keys) != want || cap(pg.rows) != want {
			t.Errorf("page %d: %d rows in capacity %d/%d, want exactly %d", pi, len(pg.keys), cap(pg.keys), cap(pg.rows), want)
		}
	}
	for i := 0; i < total; i++ {
		obj := ObjectID(2*i - total + 1)
		tab.insert(newObjState(obj))
		ref[obj] = hier.NoCluster
	}
	checkObjTable(t, 1, &tab, ref)
}

// TestObjStateIsPointerFree pins what makes the pages invisible to the
// collector and rows movable: no pointer, slice, map or interface in a row.
func TestObjStateIsPointerFree(t *testing.T) {
	var st objState
	if err := pointerFree(st); err != "" {
		t.Fatalf("objState: %s", err)
	}
}

// pointerFree walks v's type and names the first field the collector would
// have to scan, or returns "".
func pointerFree(v any) string {
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
	return walk(reflect.TypeOf(v), "")
}
