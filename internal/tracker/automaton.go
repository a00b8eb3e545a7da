package tracker

import (
	"sort"

	"vinestalk/internal/cgcast"
	"vinestalk/internal/geo"
	"vinestalk/internal/hier"
	"vinestalk/internal/sim"
	"vinestalk/internal/vsa"
)

// Automaton is the pure Tracker machine: every cluster process of Fig. 2,
// grouped by the region that hosts it, with all mutable state confined to
// the per-region objState vectors and all external actions (sends, found
// broadcasts, accounting notes, timer arming) routed through its outlet.
// It holds no *Network pointer, no sim.Timers, and no scheduled closures,
// so the same machine runs unchanged on the oracle VSA layer (oracleHost),
// on the replicated mobile-node emulator (emulHost) and on the networked
// host (NetHost).
type Automaton struct {
	h         *hier.Hierarchy
	geom      hier.Geometry
	sched     Schedule
	unit      sim.Time
	hb        *HeartbeatConfig
	noLateral bool
	maxLevel  int

	host vsa.Host // the clock of the input being processed
	out  outlet   // the oracle or emulated host itself, or the node's netOutlet
	// sending is the scratch every process's send is filled into and handed
	// to out by pointer; it is valid only until out.send returns.
	sending sendEffect

	// armedMove is the number of armed grow/shrink timers across all
	// processes (the sum of Process.armedMove).
	armedMove int

	procs   []*Process
	backups []*Process    // per cluster, nil without replication or alt head
	regions []*dispatcher // indexed by region; every region has one
}

var _ vsa.Automaton = (*Automaton)(nil)

// dispatcher groups the Tracker subautomata hosted at one region: one
// process per hierarchy level the region heads (plus backup replicas at
// alternate head regions under the §VII quorum extension). byLevel is
// indexed by level, nil where the region hosts nothing; levels lists the
// hosted levels, sorted for deterministic iteration (reset, encode).
type dispatcher struct {
	byLevel []*Process
	levels  []int
}

func (d *dispatcher) add(level int, pr *Process) {
	for len(d.byLevel) <= level {
		d.byLevel = append(d.byLevel, nil)
	}
	d.byLevel[level] = pr
	d.levels = append(d.levels, level)
	sort.Ints(d.levels)
}

// automatonConfig is the validated configuration an Automaton is built
// from — everything the machine needs, with no *Network (so hosts without
// a Network, like the networked host, can build instances too).
type automatonConfig struct {
	h          *hier.Hierarchy
	geom       hier.Geometry
	sched      Schedule
	unit       sim.Time
	hb         *HeartbeatConfig
	noLateral  bool
	replicated bool
}

// newAutomaton builds the automaton from a network's validated
// configuration. It refuses a hierarchy a row's pointers cannot index.
func newAutomaton(n *Network) (*Automaton, error) {
	if err := checkHoods(n.h); err != nil {
		return nil, err
	}
	return buildAutomaton(automatonConfig{
		h: n.h, geom: n.geom, sched: n.sched, unit: n.cg.Unit(),
		hb: n.hb, noLateral: n.noLateral, replicated: n.replicated,
	}), nil
}

// buildAutomaton builds every cluster process and the per-region dispatch
// tables, over a hierarchy that has passed checkHoods. The host is attached
// by the caller before any input flows.
func buildAutomaton(cfg automatonConfig) *Automaton {
	h := cfg.h
	a := &Automaton{
		h:         h,
		geom:      cfg.geom,
		sched:     cfg.sched,
		unit:      cfg.unit,
		hb:        cfg.hb,
		noLateral: cfg.noLateral,
		maxLevel:  h.MaxLevel(),
		regions:   make([]*dispatcher, h.Tiling().NumRegions()),
	}
	// Every region gets a dispatcher (possibly empty) so hosts can treat
	// the region set uniformly.
	for u := range a.regions {
		a.regions[u] = &dispatcher{}
	}
	a.procs = make([]*Process, h.NumClusters())
	a.backups = make([]*Process, h.NumClusters())
	for c := 0; c < h.NumClusters(); c++ {
		id := hier.ClusterID(c)
		pr := newProcess(a, id, h.Head(id))
		a.procs[c] = pr
		a.regions[pr.region].add(pr.level, pr)
		if cfg.replicated {
			if alt := h.AltHead(id); alt != geo.NoRegion {
				bk := newProcess(a, id, alt)
				bk.backup = true
				a.backups[c] = bk
				a.regions[alt].add(bk.level, bk)
			}
		}
	}
	return a
}

// region returns u's dispatcher, or nil for a region outside the tiling.
func (a *Automaton) region(u geo.RegionID) *dispatcher {
	if u < 0 || int(u) >= len(a.regions) {
		return nil
	}
	return a.regions[u]
}

// processAt returns the process hosted at (u, level), or nil. Both
// coordinates may come off the wire, so both are range-checked.
func (a *Automaton) processAt(u geo.RegionID, level int) *Process {
	d := a.region(u)
	if d == nil || level < 0 || level >= len(d.byLevel) {
		return nil
	}
	return d.byLevel[level]
}

// Deliver implements vsa.Automaton: route a C-gcast delivery to the
// addressed level's process, emitting the delivery-accounting effect first
// (the host's substrate decrements the in-transit registry and traces the
// receipt when the effect executes).
func (a *Automaton) Deliver(u geo.RegionID, level int, msg any) {
	del, ok := msg.(*cgcast.Delivery)
	if !ok {
		return
	}
	pr := a.processAt(u, level)
	if pr == nil {
		return
	}
	a.out.recv(u, pr.id, level, del)
	pr.receive(del)
}

// attach wires the automaton to the host that will run it and the outlet
// its effects go to; the caller does so before any input flows.
func (a *Automaton) attach(host vsa.Host, out outlet) {
	a.host, a.out = host, out
}

// TimerFire implements vsa.Automaton: a host wakeup for one recorded
// deadline. The fire is valid only if the slot still records exactly the
// deadline the wakeup was armed for — a re-armed, cleared, or failure-reset
// slot silently ignores it (stale wakeups are expected across emulator
// restarts and leader handoffs).
func (a *Automaton) TimerFire(u geo.RegionID, id vsa.TimerID, at sim.Time) {
	level, obj, kind := unpackTimerID(id)
	pr := a.processAt(u, level)
	if pr == nil || kind >= numTimerKinds {
		return
	}
	st := pr.objs.get(obj)
	if st == nil || pr.objs.deadline(st, kind) != at {
		return
	}
	pr.fire(st, kind)
	// A fired timer may have completed the object's teardown (e.g. the
	// shrink send clearing the last pointer): leave evicts the vector if
	// it quiesced.
	pr.leave(st, true)
}

// ResetRegion implements vsa.Automaton: every process hosted at u returns
// to its initial state and its armed timers are cleared through the host
// (§II-C.2 failure/restart).
func (a *Automaton) ResetRegion(u geo.RegionID) {
	d := a.region(u)
	if d == nil {
		return
	}
	for _, level := range d.levels {
		d.byLevel[level].reset()
	}
}

// dropRegionState discards region u's machine state without touching host
// timers — used by hosts that manage their timer tables directly (the
// emulator clears its whole per-region table on failure).
func (a *Automaton) dropRegionState(u geo.RegionID) {
	d := a.region(u)
	if d == nil {
		return
	}
	for _, level := range d.levels {
		d.byLevel[level].adopt(objTable{}, nil, 0)
	}
}

// --- timer identity ---

// timerKind distinguishes the four Fig. 2 / §VII timer variables of one
// object's state vector.
type timerKind uint8

const (
	timerGrowShrink timerKind = iota // the single grow/shrink timer
	timerNbrTimeout                  // the find neighbor-query timeout
	timerLease                       // §VII path lease
	timerNbrLease                    // §VII secondary-pointer lease
	numTimerKinds
)

// packTimerID packs (level, object, kind) into an opaque vsa.TimerID.
// Within one region a level hosts at most one process (dispatcher keying),
// so the triple uniquely names a timer slot region-wide: bits [40,64) hold
// the level, [8,40) the object id, [0,8) the kind.
func packTimerID(level int, obj ObjectID, kind timerKind) vsa.TimerID {
	return vsa.TimerID(uint64(level)<<40 | uint64(uint32(obj))<<8 | uint64(kind))
}

func unpackTimerID(id vsa.TimerID) (level int, obj ObjectID, kind timerKind) {
	return int(id >> 40), ObjectID(uint32(id >> 8)), timerKind(id & 0xff)
}
