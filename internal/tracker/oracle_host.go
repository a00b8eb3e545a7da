package tracker

import (
	"vinestalk/internal/cgcast"
	"vinestalk/internal/geo"
	"vinestalk/internal/hier"
	"vinestalk/internal/sim"
	"vinestalk/internal/trace"
	"vinestalk/internal/vsa"
)

// oracleHost runs the Tracker automaton directly on the oracle VSA layer:
// effects execute synchronously at emission and timer wakeups are kernel
// events of the hostTimers pool, found through the ref each armed timer
// variable's row keeps. This reproduces the pre-refactor direct-call
// execution exactly — same kernel event sequence, hence byte-identical
// experiment tables.
type oracleHost struct {
	net     *Network
	aut     *Automaton
	k       *sim.Kernel
	wakeups hostTimers
}

func newOracleHost(n *Network, a *Automaton) *oracleHost {
	h := &oracleHost{net: n, aut: a, k: n.k}
	h.wakeups = newHostTimers(n.k, len(a.regions), a.TimerFire)
	return h
}

var (
	_ vsa.Host = (*oracleHost)(nil)
	_ outlet   = (*oracleHost)(nil)
)

func (h *oracleHost) Now() sim.Time { return h.k.Now() }

// timer is the automaton's timer-variable write: ref is the wakeup the
// variable's row holds (0 when it holds none), and the ref returned is the
// one the row keeps while the variable is armed.
func (h *oracleHost) timer(u geo.RegionID, id vsa.TimerID, at sim.Time, ref int32) int32 {
	if at == sim.Forever {
		h.wakeups.disarm(ref, u, id)
		return 0
	}
	return h.wakeups.arm(ref, u, id, at)
}

// rewake makes region u's wakeups exactly the armed timer variables of its
// rows, after DecodeRegion replaced them. In one pass over the pool, each
// wakeup armed for u is re-attached to the armed variable of its id, and
// re-armed if the decoded deadline differs, or disarmed if no variable
// claims it; then every armed variable still without a wakeup gets one.
// Only tests and fuzzing decode on the oracle host.
func (h *oracleHost) rewake(u geo.RegionID) {
	ht := &h.wakeups
	for ref := int32(1); int(ref) < len(ht.recs); ref++ {
		w := &ht.recs[ref]
		if !w.armed || w.u != u {
			continue
		}
		level, obj, kind := unpackTimerID(w.id)
		var st *objState
		pr := h.aut.processAt(u, level)
		if pr != nil {
			st = pr.objs.get(obj)
		}
		if st == nil || kind >= numTimerKinds || !st.armed(kind) || pr.objs.wake(st, kind) != 0 {
			ht.disarm(ref, u, w.id)
			continue
		}
		if at := pr.objs.deadline(st, kind); at != w.at {
			ht.arm(ref, u, w.id, at)
		}
		pr.objs.setWake(st, kind, ref)
	}
	d := h.aut.regions[u]
	for _, level := range d.levels {
		pr := d.byLevel[level]
		if pr.objs.armed == 0 {
			continue // nothing to arm, and each would sort the rows for nothing
		}
		pr.objs.each(func(st *objState) {
			for kind := timerKind(0); kind < numTimerKinds; kind++ {
				if st.armed(kind) && pr.objs.wake(st, kind) == 0 {
					id := packTimerID(level, st.obj, kind)
					pr.objs.setWake(st, kind, ht.arm(0, u, id, pr.objs.deadline(st, kind)))
				}
			}
		})
	}
}

// hostTimers is the wakeup service of the two sim hosts: a pool of wakeup
// records, each one kernel event and the (region, id) it is armed for,
// addressed by a small integer ref. The pool keeps no index. Whoever arms a
// wakeup keeps its ref and hands it back to re-arm or disarm it: the oracle
// host's automaton in the timer variable's own deadline slot
// (Process.setTimer), the emulated host in its keyed map (keyedWakeups).
// A ref is none when it is 0, when its record has been released (fired or
// disarmed), or when the record has since been re-used for another
// (region, id); arm and disarm check all three, so a stale ref is harmless.
//
// A record is released when its wakeup fires or is disarmed and recycled
// through a free list; it binds its kernel callback once, when created, so
// steady-state arming allocates nothing. A re-arm is Cancel + At, a new arm
// At and a disarm Cancel — the calls sim.Timer.Set makes — so the kernel's
// event sequence does not depend on the pool's history.
type hostTimers struct {
	k     *sim.Kernel
	fire  func(u geo.RegionID, id vsa.TimerID, at sim.Time)
	recs  []wakeup // recs[0] is never armed, so ref 0 is none
	free  []int32
	armed []int32 // armed wakeups, by region
}

// wakeup is one record of the pool: the kernel event of the (u, id) wakeup
// due at at, while armed.
type wakeup struct {
	u     geo.RegionID
	id    vsa.TimerID
	at    sim.Time
	ev    sim.Event
	fire  func() // the kernel callback, bound to this record's ref
	armed bool
}

// newHostTimers builds an empty pool for regions 0 … regions−1 whose
// wakeups call fire with the deadline they were armed for.
func newHostTimers(k *sim.Kernel, regions int, fire func(geo.RegionID, vsa.TimerID, sim.Time)) hostTimers {
	return hostTimers{k: k, fire: fire, recs: make([]wakeup, 1), armed: make([]int32, regions)}
}

// live reports whether ref names the wakeup armed for (u, id).
func (ht *hostTimers) live(ref int32, u geo.RegionID, id vsa.TimerID) bool {
	w := &ht.recs[ref]
	return w.armed && w.u == u && w.id == id
}

// arm sets the wakeup of (u, id) to at — re-arming ref when it names that
// wakeup, else arming a new one — and returns the wakeup's ref.
func (ht *hostTimers) arm(ref int32, u geo.RegionID, id vsa.TimerID, at sim.Time) int32 {
	if ht.live(ref, u, id) {
		ht.recs[ref].ev.Cancel()
	} else {
		ref = ht.take()
		w := &ht.recs[ref]
		w.u, w.id, w.armed = u, id, true
		ht.armed[u]++
	}
	w := &ht.recs[ref]
	w.at = at
	w.ev = ht.k.At(at, w.fire)
	return ref
}

// disarm cancels the wakeup ref names, if it names the one armed for
// (u, id).
func (ht *hostTimers) disarm(ref int32, u geo.RegionID, id vsa.TimerID) {
	if ht.live(ref, u, id) {
		ht.recs[ref].ev.Cancel()
		ht.release(ref)
	}
}

// armedIn counts the wakeups armed for region u.
func (ht *hostTimers) armedIn(u geo.RegionID) int { return int(ht.armed[u]) }

// take returns an unarmed record from the free list, or a new one with its
// kernel callback bound.
func (ht *hostTimers) take() int32 {
	if n := len(ht.free); n > 0 {
		ref := ht.free[n-1]
		ht.free = ht.free[:n-1]
		return ref
	}
	ref := int32(len(ht.recs))
	ht.recs = append(ht.recs, wakeup{fire: func() { ht.fired(ref) }})
	return ref
}

// fired runs a wakeup the kernel fired: the record is released before the
// callback, which may arm it again.
func (ht *hostTimers) fired(ref int32) {
	w := &ht.recs[ref]
	u, id, at := w.u, w.id, w.at
	ht.release(ref)
	ht.fire(u, id, at)
}

// release returns a fired or cancelled record to the free list.
func (ht *hostTimers) release(ref int32) {
	w := &ht.recs[ref]
	w.armed = false
	ht.armed[w.u]--
	ht.free = append(ht.free, ref)
}

func (h *oracleHost) send(_ geo.RegionID, e *sendEffect)  { h.net.execSend(e) }
func (h *oracleHost) found(_ geo.RegionID, e foundEffect) { h.net.execFound(e) }
func (h *oracleHost) recv(_ geo.RegionID, to hier.ClusterID, level int, d *cgcast.Delivery) {
	h.net.count(d.Kind, -1)
	h.net.execRecv(to, level, d)
}
func (h *oracleHost) noteGrow(_ geo.RegionID, level int)  { h.net.noteGrow(level) }
func (h *oracleHost) noteQuery(_ geo.RegionID, level int) { h.net.noteFindQuery(level) }

// oracleRegionHandler adapts one region's slice of the automaton to the
// VSA layer's handler interface.
type oracleRegionHandler struct {
	host *oracleHost
	u    geo.RegionID
}

var _ vsa.VSAHandler = oracleRegionHandler{}

func (rh oracleRegionHandler) Receive(level int, msg any) {
	rh.host.aut.Deliver(rh.u, level, msg)
}

// Reset reinitializes the region's processes on VSA failure/restart,
// tracing the state loss per hosted process.
func (rh oracleRegionHandler) Reset() {
	h := rh.host
	d := h.aut.regions[rh.u]
	for _, level := range d.levels {
		pr := d.byLevel[level]
		h.net.tr.Emit(trace.Event{
			At: h.k.Now(), Kind: "reset", Obj: -1,
			From: int32(pr.id), To: -1, Region: -1, Level: int16(pr.level),
			Detail: "lost state",
		})
		pr.reset()
	}
}
