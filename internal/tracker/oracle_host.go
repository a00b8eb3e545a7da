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
// effects execute synchronously at emission and timer wakeups are plain
// kernel timers. This reproduces the pre-refactor direct-call execution
// exactly — same kernel event sequence, hence byte-identical experiment
// tables.
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

func (h *oracleHost) SetTimer(u geo.RegionID, id vsa.TimerID, at sim.Time) {
	h.wakeups.arm(u, id, at)
}

func (h *oracleHost) ClearTimer(u geo.RegionID, id vsa.TimerID) {
	h.wakeups.disarm(u, id)
}

// hostTimers is the wakeup service of the two sim hosts: one kernel timer
// per armed (region, id), found through the region's own table keyed by the
// bare id, which a map hashes as one word. An entry leaves the table when its
// timer fires or is cleared, so the tables hold exactly the armed timers
// however many (region, level, object, kind) slots a run has ever armed; the
// kernel timers themselves are recycled through a free list, so steady-state
// arming allocates nothing. Arming costs one Kernel.At whether the entry is
// new or re-armed, so the kernel's event sequence does not depend on the
// tables' history.
type hostTimers struct {
	k     *sim.Kernel
	fire  func(u geo.RegionID, id vsa.TimerID, at sim.Time)
	armed []map[vsa.TimerID]*hostTimer // by region; nil until its first arm
	free  []*hostTimer
}

// hostTimer is one kernel timer and the slot it is currently armed for.
type hostTimer struct {
	u  geo.RegionID
	id vsa.TimerID
	at sim.Time
	t  *sim.Timer
}

// newHostTimers builds empty tables for regions 0 … regions−1 whose wakeups
// call fire with the deadline they were armed for.
func newHostTimers(k *sim.Kernel, regions int, fire func(geo.RegionID, vsa.TimerID, sim.Time)) hostTimers {
	return hostTimers{k: k, fire: fire, armed: make([]map[vsa.TimerID]*hostTimer, regions)}
}

// arm sets (or re-sets) the wakeup of (u, id) to at.
func (ht *hostTimers) arm(u geo.RegionID, id vsa.TimerID, at sim.Time) {
	m := ht.armed[u]
	if m == nil {
		m = make(map[vsa.TimerID]*hostTimer)
		ht.armed[u] = m
	}
	e, ok := m[id]
	if !ok {
		if n := len(ht.free); n > 0 {
			e, ht.free = ht.free[n-1], ht.free[:n-1]
		} else {
			e = &hostTimer{}
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
func (ht *hostTimers) disarm(u geo.RegionID, id vsa.TimerID) {
	if e, ok := ht.armed[u][id]; ok {
		e.t.Clear()
		ht.release(e)
	}
}

// disarmRegion cancels every wakeup of region u.
func (ht *hostTimers) disarmRegion(u geo.RegionID) {
	for _, e := range ht.armed[u] {
		e.t.Clear()
		ht.release(e)
	}
}

// armedIn counts the wakeups armed for region u.
func (ht *hostTimers) armedIn(u geo.RegionID) int { return len(ht.armed[u]) }

// release takes a fired or cleared timer out of its region's table.
func (ht *hostTimers) release(e *hostTimer) {
	delete(ht.armed[e.u], e.id)
	ht.free = append(ht.free, e)
}

// Emit executes the effect immediately against the live network. The
// automaton itself reaches the oracle host through the outlet methods below,
// which do the same without boxing the effect.
func (h *oracleHost) Emit(u geo.RegionID, effect any) {
	h.net.execEffect(effect)
}

func (h *oracleHost) send(_ geo.RegionID, e sendEffect)   { h.net.execSend(e) }
func (h *oracleHost) found(_ geo.RegionID, e foundEffect) { h.net.execFound(e) }
func (h *oracleHost) recv(_ geo.RegionID, to hier.ClusterID, level int, d *cgcast.Delivery) {
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
