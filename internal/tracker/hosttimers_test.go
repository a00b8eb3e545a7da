package tracker

import (
	"math/rand"
	"testing"

	"vinestalk/internal/geo"
	"vinestalk/internal/sim"
	"vinestalk/internal/vsa"
)

// mapHostTimers is the wakeup service as it was before the pool: one kernel
// timer per armed (region, id), found through the region's own map keyed by
// the bare id. It is kept verbatim, renamed, as the reference the pool and
// the emulated host's keyed path are checked against.
type mapHostTimers struct {
	k     *sim.Kernel
	fire  func(u geo.RegionID, id vsa.TimerID, at sim.Time)
	armed []map[vsa.TimerID]*mapHostTimer // by region; nil until its first arm
	free  []*mapHostTimer
}

// mapHostTimer is one kernel timer and the slot it is currently armed for.
type mapHostTimer struct {
	u  geo.RegionID
	id vsa.TimerID
	at sim.Time
	t  *sim.Timer
}

// newMapHostTimers builds empty tables for regions 0 … regions−1 whose
// wakeups call fire with the deadline they were armed for.
func newMapHostTimers(k *sim.Kernel, regions int, fire func(geo.RegionID, vsa.TimerID, sim.Time)) mapHostTimers {
	return mapHostTimers{k: k, fire: fire, armed: make([]map[vsa.TimerID]*mapHostTimer, regions)}
}

// arm sets (or re-sets) the wakeup of (u, id) to at.
func (ht *mapHostTimers) arm(u geo.RegionID, id vsa.TimerID, at sim.Time) {
	m := ht.armed[u]
	if m == nil {
		m = make(map[vsa.TimerID]*mapHostTimer)
		ht.armed[u] = m
	}
	e, ok := m[id]
	if !ok {
		if n := len(ht.free); n > 0 {
			e, ht.free = ht.free[n-1], ht.free[:n-1]
		} else {
			e = &mapHostTimer{}
			e.t = sim.NewTimer(ht.k, func() {
				ht.release(e)
				ht.fire(e.u, e.id, e.at)
			})
		}
		e.u, e.id = u, id
		m[id] = e
	}
	e.at = at
	e.t.Set(at)
}

// disarm cancels the wakeup of (u, id), if armed.
func (ht *mapHostTimers) disarm(u geo.RegionID, id vsa.TimerID) {
	if e, ok := ht.armed[u][id]; ok {
		e.t.Clear()
		ht.release(e)
	}
}

// disarmRegion cancels every wakeup of region u.
func (ht *mapHostTimers) disarmRegion(u geo.RegionID) {
	for _, e := range ht.armed[u] {
		e.t.Clear()
		ht.release(e)
	}
}

// armedIn counts the wakeups armed for region u.
func (ht *mapHostTimers) armedIn(u geo.RegionID) int { return len(ht.armed[u]) }

// release takes a fired or cleared timer out of its region's table.
func (ht *mapHostTimers) release(e *mapHostTimer) {
	delete(ht.armed[e.u], e.id)
	ht.free = append(ht.free, e)
}

// TestHostTimersMatchReference drives one random sequence of arms, re-arms,
// clears, fires and region losses through three services, each on its own
// kernel: the reference model, the pool addressed through a fake row table
// that keeps each (region, id)'s ref the way a row's deadline slot does, and
// the emulated host's keyed path. The three make the same kernel calls, so
// their kernels pop alike: every wakeup must be the model's, (u, id, at,
// k.Now()) with at = k.Now(), and after every operation each region's count
// must be the model's.
//
// The fake rows keep a ref past its wakeup's fire, past a clear and past a
// region loss, and hand it back on the next arm or clear of the same
// (region, id), while the pool re-uses the record for other wakeups; a stale
// ref must be none, and a clear through one must leave the wakeup the record
// now carries armed.
func TestHostTimersMatchReference(t *testing.T) {
	const regions, ids = 6, 10
	type key struct {
		u  geo.RegionID
		id vsa.TimerID
	}
	type wake struct {
		u   geo.RegionID
		id  vsa.TimerID
		at  sim.Time
		now sim.Time
	}
	type row struct {
		ref   int32
		armed bool // the variable is armed; ref is kept either way
	}
	km, kp, kk := sim.New(1), sim.New(1), sim.New(1)
	var wm, wp, wk []wake
	model := newMapHostTimers(km, regions, func(u geo.RegionID, id vsa.TimerID, at sim.Time) {
		wm = append(wm, wake{u, id, at, km.Now()})
	})
	rows := map[key]*row{}
	rowOf := func(u geo.RegionID, id vsa.TimerID) *row {
		r := rows[key{u, id}]
		if r == nil {
			r = &row{}
			rows[key{u, id}] = r
		}
		return r
	}
	pool := newHostTimers(kp, regions, func(u geo.RegionID, id vsa.TimerID, at sim.Time) {
		rowOf(u, id).armed = false
		wp = append(wp, wake{u, id, at, kp.Now()})
	})
	keyed := newKeyedWakeups(kk, regions, func(u geo.RegionID, id vsa.TimerID, at sim.Time) {
		wk = append(wk, wake{u, id, at, kk.Now()})
	})
	// stale counts arms and clears handed a ref whose record is armed for
	// another (region, id): the case the check in live exists for.
	stale := 0
	staleElsewhere := func(r *row, u geo.RegionID, id vsa.TimerID) {
		if w := &pool.recs[r.ref]; !r.armed && w.armed && (w.u != u || w.id != id) {
			stale++
		}
	}
	rng := rand.New(rand.NewSource(2))
	for op := 0; op < 30_000; op++ {
		u, id := geo.RegionID(rng.Intn(regions)), vsa.TimerID(rng.Intn(ids))<<40|vsa.TimerID(rng.Intn(4))
		switch r := rng.Intn(10); {
		case r < 4:
			at := km.Now() + sim.Time(rng.Intn(50))
			model.arm(u, id, at)
			fr := rowOf(u, id)
			staleElsewhere(fr, u, id)
			fr.ref, fr.armed = pool.arm(fr.ref, u, id, at), true
			keyed.arm(u, id, at)
		case r < 6:
			model.disarm(u, id)
			fr := rowOf(u, id)
			staleElsewhere(fr, u, id)
			pool.disarm(fr.ref, u, id)
			fr.armed = false
			keyed.disarm(u, id)
		case r == 6:
			model.disarmRegion(u)
			for kk, fr := range rows {
				if kk.u == u {
					staleElsewhere(fr, kk.u, kk.id)
					pool.disarm(fr.ref, kk.u, kk.id)
					fr.armed = false
				}
			}
			keyed.disarmRegion(u)
		default:
			km.Step()
			kp.Step()
			kk.Step()
		}
		if len(wp) != len(wm) || len(wk) != len(wm) {
			t.Fatalf("op %d: the model fired %d wakeups, the pool %d, the keyed path %d", op, len(wm), len(wp), len(wk))
		}
		for i := range wm {
			if w := wm[i]; w.at != w.now || wp[i] != w || wk[i] != w {
				t.Fatalf("op %d: the model's wakeup %+v, the pool's %+v, the keyed path's %+v", op, w, wp[i], wk[i])
			}
		}
		wm, wp, wk = wm[:0], wp[:0], wk[:0]
		armed := 0
		for u := geo.RegionID(0); u < regions; u++ {
			want := model.armedIn(u)
			if p, k := pool.armedIn(u), keyed.armedIn(u); p != want || k != want || len(keyed.refs[u]) != want {
				t.Fatalf("op %d: region %d has %d wakeups armed in the model, %d in the pool, %d (%d keyed) on the keyed path",
					op, u, want, p, k, len(keyed.refs[u]))
			}
			armed += want
		}
		for kk, fr := range rows {
			if fr.armed && !pool.live(fr.ref, kk.u, kk.id) {
				t.Fatalf("op %d: (%d, %d) is armed, but its ref %d names no live wakeup", op, kk.u, kk.id, fr.ref)
			}
		}
		if got := len(pool.recs) - 1 - len(pool.free); got != armed {
			t.Fatalf("op %d: %d records out of the free list for %d armed wakeups", op, got, armed)
		}
	}
	if stale < 100 {
		t.Fatalf("only %d arms or clears went through a ref re-used for another wakeup", stale)
	}
}

// Arming, re-arming, clearing and firing wakeups allocates nothing once the
// pool and its free list are warm.
func TestHostTimersSteadyStateAllocatesNothing(t *testing.T) {
	k := sim.New(1)
	fired := 0
	ht := newHostTimers(k, 4, func(geo.RegionID, vsa.TimerID, sim.Time) { fired++ })
	refs := make([]int32, 128)
	for id := vsa.TimerID(0); id < 64; id++ {
		refs[id] = ht.arm(refs[id], 2, id, sim.Time(id))
	}
	k.Run()
	id := vsa.TimerID(0)
	if got := testing.AllocsPerRun(1000, func() {
		id = (id + 1) % 64
		refs[id] = ht.arm(refs[id], 2, id, k.Now()+2)
		refs[id] = ht.arm(refs[id], 2, id, k.Now()+1) // re-armed
		refs[id+64] = ht.arm(refs[id+64], 2, id+64, k.Now()+3)
		ht.disarm(refs[id+64], 2, id+64)
		k.Step()
	}); got != 0 {
		t.Errorf("steady-state arm, re-arm, disarm and fire allocated %v times, want 0", got)
	}
	if fired < 1000 {
		t.Fatalf("%d wakeups fired", fired)
	}
}
