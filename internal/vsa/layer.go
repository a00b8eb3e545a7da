// Package vsa implements the Virtual Stationary Automata layer of §II-C:
// mobile clients C_p that receive GPSupdate inputs, and one virtual
// stationary automaton V_u per region u, which is a union of per-level
// subautomata V_{u,l} (one per cluster the region heads).
//
// Failure semantics follow §II-C.2 exactly: a clientless region's VSA is
// failed (its state is lost and in-flight messages to it are dropped); a
// VSA only fails when clients fail or leave its region; and a failed VSA
// restarts from its initial state once its region has been continuously
// occupied for t_restart.
//
// Substitution note: the paper emulates each VSA with the physical mobile
// nodes in its region (refs [7], [6]); this package implements the
// *abstract* layer those references prove implementable — the observable
// interface (hosting, timing lag e, failure/restart rules) is the same, and
// it is the interface the VINESTALK analysis is carried out against.
package vsa

import (
	"cmp"
	"fmt"
	"sort"

	"vinestalk/internal/geo"
	"vinestalk/internal/sim"
)

// ClientID identifies a mobile client (a physical node).
type ClientID int

// String returns a compact textual form of the identifier.
func (c ClientID) String() string { return fmt.Sprintf("p%d", int(c)) }

// ClientHandler is the algorithm running at a client. The layer invokes it
// for GPS region-change notifications and message deliveries.
type ClientHandler interface {
	// GPSUpdate reports the client's current region; it fires when the
	// client enters the system, changes region, or restarts.
	GPSUpdate(u geo.RegionID)
	// Receive delivers a message broadcast to the client.
	Receive(msg any)
}

// VSAHandler is the algorithm state hosted by one region's VSA (the union
// of its per-level Tracker subautomata, for VINESTALK).
type VSAHandler interface {
	// Receive delivers a message addressed to the subautomaton at the given
	// hierarchy level.
	Receive(level int, msg any)
	// Reset reinitializes all subautomata state; called when the VSA fails
	// or restarts.
	Reset()
}

type client struct {
	id      ClientID
	region  geo.RegionID // NoRegion when failed or outside
	alive   bool
	handler ClientHandler
}

type region struct {
	alive       bool
	incarnation uint64
	handler     VSAHandler
	// occupants are the alive clients in the region, ascending. The slice is
	// replaced on every enter and leave, never written in place, so one
	// handed out by ClientsIn stays the snapshot it was.
	occupants []ClientID
	restart   *sim.Timer
}

// indexOf returns where id sits, or would be inserted, among the occupants.
func (r *region) indexOf(id ClientID) (int, bool) {
	return sort.Find(len(r.occupants), func(i int) int { return cmp.Compare(id, r.occupants[i]) })
}

// Layer is the VSA layer: the client population, per-region VSA lifecycle,
// and delivery entry points used by the communication services.
type Layer struct {
	k        *sim.Kernel
	tiling   geo.Tiling
	clients  map[ClientID]*client
	regions  []*region
	tRestart sim.Time
	always   bool // every VSA permanently alive (paper's §IV-C assumption)
	// epoch counts alive-set changes: it is bumped every time any region's
	// VSA fails or (re)starts. Routing layers key caches of "next hop over
	// the alive subgraph" on it — within one epoch the alive set is frozen,
	// so any such cache entry stays valid exactly until the epoch moves.
	// It starts at 1 so a zero-valued cache entry can never look fresh.
	epoch uint64
}

// AliveEpoch returns the current aliveness epoch: a counter bumped on every
// VSA failure and restart. Two calls returning the same value bracket a
// window in which no VSA's liveness changed.
func (l *Layer) AliveEpoch() uint64 { return l.epoch }

// Option configures the layer.
type Option interface{ apply(*Layer) }

type tRestartOption sim.Time

func (o tRestartOption) apply(l *Layer) { l.tRestart = sim.Time(o) }

// WithTRestart sets the t_restart delay before a failed VSA restarts.
func WithTRestart(d sim.Time) Option { return tRestartOption(d) }

type alwaysAliveOption struct{}

func (alwaysAliveOption) apply(l *Layer) { l.always = true }

// WithAlwaysAlive pins every VSA alive regardless of occupancy. This is the
// assumption under which the paper proves correctness ("assuming each VSA
// is always alive", §III-B); failure experiments drop the option.
func WithAlwaysAlive() Option { return alwaysAliveOption{} }

// NewLayer creates a layer over tiling t with no clients; all VSAs start
// failed (or alive under WithAlwaysAlive) until clients arrive.
func NewLayer(k *sim.Kernel, t geo.Tiling, opts ...Option) *Layer {
	l := &Layer{
		k:        k,
		tiling:   t,
		clients:  make(map[ClientID]*client),
		regions:  make([]*region, t.NumRegions()),
		tRestart: 0,
		epoch:    1,
	}
	for _, o := range opts {
		o.apply(l)
	}
	for u := range l.regions {
		r := &region{}
		if l.always {
			r.alive = true
		}
		u := geo.RegionID(u)
		r.restart = sim.NewTimer(k, func() { l.completeRestart(u) })
		l.regions[int(u)] = r
	}
	return l
}

// Kernel returns the simulation kernel the layer runs on.
func (l *Layer) Kernel() *sim.Kernel { return l.k }

// Tiling returns the region tiling.
func (l *Layer) Tiling() geo.Tiling { return l.tiling }

// RegisterVSA installs the algorithm hosted at region u's VSA. It must be
// called once per region before messages flow.
func (l *Layer) RegisterVSA(u geo.RegionID, h VSAHandler) {
	l.regions[int(u)].handler = h
}

// AddClient places a new, alive client at region u. The client immediately
// receives a GPSUpdate for u.
func (l *Layer) AddClient(id ClientID, u geo.RegionID, h ClientHandler) error {
	if _, dup := l.clients[id]; dup {
		return fmt.Errorf("vsa: client %v already exists", id)
	}
	if !l.tiling.Contains(u) {
		return fmt.Errorf("vsa: region %v outside tiling", u)
	}
	c := &client{id: id, region: u, alive: true, handler: h}
	l.clients[id] = c
	l.enterRegion(id, u)
	h.GPSUpdate(u)
	return nil
}

// MoveClient relocates an alive client to region u; the GPS service
// delivers the new region immediately (it is an oracle).
func (l *Layer) MoveClient(id ClientID, u geo.RegionID) error {
	c, ok := l.clients[id]
	if !ok || !c.alive {
		return fmt.Errorf("vsa: client %v not alive", id)
	}
	if !l.tiling.Contains(u) {
		return fmt.Errorf("vsa: region %v outside tiling", u)
	}
	if c.region == u {
		return nil
	}
	l.leaveRegion(id, c.region)
	c.region = u
	l.enterRegion(id, u)
	c.handler.GPSUpdate(u)
	return nil
}

// FailClient crash-stops a client. Its region may lose its VSA as a result.
func (l *Layer) FailClient(id ClientID) {
	c, ok := l.clients[id]
	if !ok || !c.alive {
		return
	}
	c.alive = false
	l.leaveRegion(id, c.region)
	c.region = geo.NoRegion
}

// RestartClient restarts a failed client at region u, from its initial
// state (the handler receives a fresh GPSUpdate).
func (l *Layer) RestartClient(id ClientID, u geo.RegionID) error {
	c, ok := l.clients[id]
	if !ok {
		return fmt.Errorf("vsa: unknown client %v", id)
	}
	if c.alive {
		return fmt.Errorf("vsa: client %v already alive", id)
	}
	if !l.tiling.Contains(u) {
		return fmt.Errorf("vsa: region %v outside tiling", u)
	}
	c.alive = true
	c.region = u
	l.enterRegion(id, u)
	c.handler.GPSUpdate(u)
	return nil
}

// ClientRegion returns the client's current region, NoRegion if failed.
func (l *Layer) ClientRegion(id ClientID) geo.RegionID {
	c, ok := l.clients[id]
	if !ok || !c.alive {
		return geo.NoRegion
	}
	return c.region
}

// ClientAlive reports whether the client is alive.
func (l *Layer) ClientAlive(id ClientID) bool {
	c, ok := l.clients[id]
	return ok && c.alive
}

// ClientsIn returns the alive clients currently in region u, ascending. The
// result is a snapshot shared with the layer: later arrivals and departures
// do not show in it, and the caller must not write to it.
func (l *Layer) ClientsIn(u geo.RegionID) []ClientID {
	if !l.tiling.Contains(u) {
		return nil
	}
	return l.regions[int(u)].occupants
}

// Alive reports whether region u's VSA is alive.
func (l *Layer) Alive(u geo.RegionID) bool {
	return l.tiling.Contains(u) && l.regions[int(u)].alive
}

// Incarnation returns a counter bumped on every failure and restart of
// region u's VSA. Messages captured under an old incarnation must be
// dropped (the VSA that held them is gone).
func (l *Layer) Incarnation(u geo.RegionID) uint64 {
	return l.regions[int(u)].incarnation
}

// DeliverToVSA hands msg to the subautomaton at (u, level). It reports
// whether the VSA was alive to receive it.
func (l *Layer) DeliverToVSA(u geo.RegionID, level int, msg any) bool {
	if !l.tiling.Contains(u) {
		return false
	}
	r := l.regions[int(u)]
	if !r.alive || r.handler == nil {
		return false
	}
	r.handler.Receive(level, msg)
	return true
}

// DeliverToClient hands msg to a client; delivery fails silently if the
// client is not alive (stopping failures lose messages).
func (l *Layer) DeliverToClient(id ClientID, msg any) bool {
	c, ok := l.clients[id]
	if !ok || !c.alive {
		return false
	}
	c.handler.Receive(msg)
	return true
}

// enterRegion and leaveRegion maintain occupancy and drive the §II-C.2 VSA
// lifecycle.
func (l *Layer) enterRegion(id ClientID, u geo.RegionID) {
	r := l.regions[int(u)]
	if i, found := r.indexOf(id); !found {
		next := make([]ClientID, 0, len(r.occupants)+1)
		r.occupants = append(append(append(next, r.occupants[:i]...), id), r.occupants[i:]...)
	}
	if l.always || r.alive {
		return
	}
	if len(r.occupants) == 1 && !r.restart.Armed() {
		r.restart.SetAfter(l.tRestart)
	}
}

func (l *Layer) leaveRegion(id ClientID, u geo.RegionID) {
	if u == geo.NoRegion {
		return
	}
	r := l.regions[int(u)]
	if i, found := r.indexOf(id); found {
		next := make([]ClientID, 0, len(r.occupants)-1)
		r.occupants = append(append(next, r.occupants[:i]...), r.occupants[i+1:]...)
	}
	if l.always || len(r.occupants) > 0 {
		return
	}
	// Region is clientless: the VSA fails now (or its pending restart is
	// abandoned).
	r.restart.Clear()
	if r.alive {
		r.alive = false
		r.incarnation++
		l.epoch++
		if r.handler != nil {
			r.handler.Reset()
		}
	}
}

func (l *Layer) completeRestart(u geo.RegionID) {
	r := l.regions[int(u)]
	if r.alive || len(r.occupants) == 0 {
		return
	}
	r.alive = true
	r.incarnation++
	l.epoch++
	if r.handler != nil {
		r.handler.Reset()
	}
}

// StartAllAlive marks every currently-occupied region's VSA alive without
// waiting t_restart: the system boots in a correctly-initialized state, as
// the paper's executions assume. Call it once after placing the initial
// client population.
func (l *Layer) StartAllAlive() {
	for _, r := range l.regions {
		if len(r.occupants) > 0 && !r.alive {
			r.restart.Clear()
			r.alive = true
			l.epoch++
			// No handler Reset: handlers are freshly constructed at boot
			// and already in their initial state.
		}
	}
}
