package tracker

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"vinestalk/internal/cgcast"
	"vinestalk/internal/geo"
	"vinestalk/internal/hier"
	"vinestalk/internal/nethost"
	"vinestalk/internal/sim"
	"vinestalk/internal/vsa"
)

// NetHost hosts the Tracker automaton and the client algorithm (clientCore)
// on the networked host (internal/nethost): one node per region, with its
// region's stationary client, run by the service's executor, wall-clock
// timers, and the versioned wire codec as the message format. A region's
// machine and client are touched only by its node's inputs; the host's
// find registry and object positions, shared with the callers of
// PlaceObject, MoveObject and Find, sit behind a mutex.
//
// The paper's delivery schedule survives the near-instant transport
// because every frame carries an absolute due time computed from the same
// ScheduleDelayIn the sim service uses, and the receiving service holds
// the frame until then.
type NetHost struct {
	h     *hier.Hierarchy
	geom  hier.Geometry
	unit  sim.Time
	delta sim.Time
	hb    *HeartbeatConfig
	aCfg  automatonConfig

	svc *nethost.Service

	// mu guards the host registries below, never node or automaton state.
	// objAt is each placed object's region; finds is in wall-clock time.
	mu      sync.Mutex
	objAt   map[ObjectID]geo.RegionID
	finds   findRegistry
	onFound func(FindResult)
}

// NetConfig parameterizes a NetHost.
type NetConfig struct {
	// Geom is the measured cluster geometry (hier.MeasureGeometry).
	Geom hier.Geometry
	// Delta is δ, the client↔cluster broadcast delay.
	Delta sim.Time
	// Unit is δ+e, the per-distance-unit delay of the schedule.
	Unit sim.Time
	// Heartbeat, when positive, enables the §VII refresh extension with
	// this client re-broadcast period.
	Heartbeat sim.Time
	// OnFound is invoked once per completed find, on the service's
	// executor: it must not block, nor call back into the host.
	OnFound func(FindResult)
}

// NewNetHost validates the configuration and assembles the app; wire it to
// a service with nethost.New(app, ...) and keep the returned service via
// Attach before Start.
func NewNetHost(h *hier.Hierarchy, cfg NetConfig) (*NetHost, error) {
	if cfg.Unit <= 0 || cfg.Delta <= 0 {
		return nil, fmt.Errorf("tracker: nethost needs positive delta and unit, got δ=%v unit=%v", cfg.Delta, cfg.Unit)
	}
	sched := DefaultSchedule(cfg.Geom, cfg.Unit)
	if err := sched.Validate(cfg.Geom, cfg.Unit); err != nil {
		return nil, err
	}
	// Every node builds its automaton in NewAutomaton, which cannot fail.
	if err := checkHoods(h); err != nil {
		return nil, err
	}
	nh := &NetHost{
		h:       h,
		geom:    cfg.Geom,
		unit:    cfg.Unit,
		delta:   cfg.Delta,
		onFound: cfg.OnFound,
		objAt:   make(map[ObjectID]geo.RegionID),
		finds:   findRegistry{open: make(map[FindID]sim.Time)},
	}
	if cfg.Heartbeat > 0 {
		nh.hb = &HeartbeatConfig{
			Period: cfg.Heartbeat,
			leases: computeLeases(h, cfg.Geom, sched, cfg.Unit, cfg.Heartbeat),
		}
	}
	nh.aCfg = automatonConfig{
		h: h, geom: cfg.Geom, sched: sched, unit: cfg.Unit, hb: nh.hb,
	}
	return nh, nil
}

// Attach binds the hosting service and registers the Fig. 2 alphabet with
// it, the only kinds its Receive accepts from a peer. Call after
// nethost.New and before Start (find and move inputs need it to reach the
// nodes).
func (nh *NetHost) Attach(svc *nethost.Service) {
	nh.svc = svc
	svc.RegisterKinds(kindNames[kindGrow:]...)
}

// Hierarchy returns the cluster hierarchy.
func (nh *NetHost) Hierarchy() *hier.Hierarchy { return nh.h }

// netRegionState is a node's State, made on its first input: the region's
// client, whose port it is, and the scratch each inbound frame is decoded
// into, which the next frame overwrites (its readers copy what they keep).
type netRegionState struct {
	nh     *NetHost
	n      *nethost.Node
	client clientCore
	del    cgcast.Delivery
	finds  []FindPayload
}

func (nh *NetHost) region(n *nethost.Node) *netRegionState {
	st, ok := n.State.(*netRegionState)
	if !ok {
		st = &netRegionState{nh: nh, n: n}
		st.client = clientCore{port: st, heartbeat: nh.hb != nil, region: n.Region(), here: make(map[ObjectID]uint64)}
		n.State = st
	}
	return st
}

// send is ClientToCluster over the wire: a frame due δ after the input's
// instant, from NoCluster, which the receiver takes for a local detection.
func (st *netRegionState) send(u geo.RegionID, kind kindCode, body cgcast.Body) error {
	nh, c0 := st.nh, st.nh.h.Cluster(u, 0)
	if c0 == hier.NoCluster {
		return fmt.Errorf("tracker: region %v has no level-0 cluster", u)
	}
	head := nh.h.Head(c0)
	return nh.sendMsg(st.n, head, st.n.Now()+nh.delta, nh.hops(u, head), hier.NoCluster, u, 0, kind.String(), &body)
}

// tickAfter runs the tick as an input of the node; it dies with the node.
func (st *netRegionState) tickAfter(obj ObjectID, epoch uint64) {
	st.n.RunAt(st.n.Now()+st.nh.hb.Period, func(*nethost.Node) { st.client.tick(obj, epoch) })
}

func (st *netRegionState) found(obj ObjectID, p FindPayload, u geo.RegionID) {
	st.nh.reportFound(obj, p, u)
}

// --- nethost.App ---

var _ nethost.App = (*NetHost)(nil)

// NewAutomaton implements nethost.App: each region node gets its own full
// automaton instance in initial state, wired to the node as its host and to
// a netOutlet on the node as its outlet. Only the processes headed at that
// region are ever driven; the instance-per-region split is what a real
// deployment has, and a node restart therefore comes back with exactly the
// §II-C.2 initial state.
func (nh *NetHost) NewAutomaton(u geo.RegionID, host vsa.Host) vsa.Automaton {
	a := buildAutomaton(nh.aCfg)
	a.attach(host, netOutlet{nh: nh, n: host.(*nethost.Node)})
	return a
}

// OnStart implements nethost.App: the GPS input of the region's client at
// boot and after a restart, which lets a restarted evader region re-seed
// the tracking structure.
func (nh *NetHost) OnStart(n *nethost.Node) { nh.gps(n, n.Region()) }

// gps is a GPS input reporting u to node n's client, with the objects objAt
// places at u.
func (nh *NetHost) gps(n *nethost.Node, u geo.RegionID) {
	var present []ObjectID
	nh.mu.Lock()
	for obj, at := range nh.objAt {
		if at == u {
			present = append(present, obj)
		}
	}
	nh.mu.Unlock()
	nh.region(n).client.reset(u, present)
}

// netOutlet is one node's outlet, called in the node's inputs: its
// automaton's sends and founds become frames, each message encoded straight
// into its frame's buffer, and its timers go to the node. Receipts and the
// §VI notes are accounting of the sim substrate, with no networked
// counterpart.
type netOutlet struct {
	nh *NetHost
	n  *nethost.Node
}

func (o netOutlet) send(u geo.RegionID, e *sendEffect) {
	nh, h := o.nh, o.nh.h
	to := h.Head(e.To)
	due := o.n.Now() + cgcast.ScheduleDelayIn(h, nh.geom, nh.unit, e.From, e.To)
	_ = nh.sendMsg(o.n, to, due, nh.hops(u, to), e.From, u, h.Level(e.To), e.Kind.String(), &e.Body)
}

// found broadcasts found to the clients of the cluster head's region and of
// its neighbours: one frame each, all due one unit from now.
func (o netOutlet) found(_ geo.RegionID, e foundEffect) {
	nh := o.nh
	head := nh.h.Head(e.From)
	due := o.n.Now() + nh.unit
	body := findsBody(e.Obj, e.Payloads)
	_ = nh.sendMsg(o.n, head, due, 0, e.From, head, 0, KindFound, &body)
	for _, target := range nh.h.Tiling().Neighbors(head) {
		_ = nh.sendMsg(o.n, target, due, nh.hops(head, target), e.From, head, 0, KindFound, &body)
	}
}

func (netOutlet) recv(geo.RegionID, hier.ClusterID, int, *cgcast.Delivery) {}
func (netOutlet) noteGrow(geo.RegionID, int)                               {}
func (netOutlet) noteQuery(geo.RegionID, int)                              {}

// timer arms or clears (at = ∞) the node's timer; the node keeps its own
// index, so no ref is kept.
func (o netOutlet) timer(u geo.RegionID, id vsa.TimerID, at sim.Time, _ int32) int32 {
	o.n.SetTimer(u, id, at)
	return 0
}

// sendMsg sends the message of the given kind from cluster from (in region
// fromRegion) to the process at level, with body b, to region to in a frame
// of its own due at due, charging hops. The frame's buffer is the one
// allocation: the message is written into it behind the header. A message
// the wire codec refuses is not sent.
func (nh *NetHost) sendMsg(n *nethost.Node, to geo.RegionID, due sim.Time, hops int,
	from hier.ClusterID, fromRegion geo.RegionID, level int, kind string, b *cgcast.Body) error {
	frame, err := AppendClusterMsg(nethost.NewFrame(to, due, kind, msgSize(kind, b)), from, fromRegion, level, kind, b)
	if err != nil {
		return err
	}
	n.SendFrame(frame, hops)
	return nil
}

// DeliverFrame implements nethost.App: decode one due frame into the node's
// scratch and feed it to the region's machine — or, for found broadcasts,
// to the region's client. The bytes are untrusted; a frame that fails the
// wire codec is dropped.
func (nh *NetHost) DeliverFrame(n *nethost.Node, kind string, payload []byte) {
	st := nh.region(n)
	level, err := decodeClusterMsg(kind, payload, &st.del, &st.finds)
	if err != nil {
		return
	}
	if kind == KindFound {
		st.client.deliverFound(ObjectID(st.del.Obj), &st.del.Body)
		return
	}
	n.Automaton().Deliver(n.Region(), level, &st.del)
}

// hops charges the head-to-head hop distance for the ledger's hop-work
// accounting, mirroring the sim service.
func (nh *NetHost) hops(from, to geo.RegionID) int {
	if from == to {
		return 0
	}
	return max(nh.h.Graph().Distance(from, to), 0)
}

// --- external inputs ---

// PlaceObject introduces a tracked object at region at, or teleports one
// already placed: the region the host records for it gets the left input,
// and at detects the object and grows the path.
func (nh *NetHost) PlaceObject(obj ObjectID, at geo.RegionID) error {
	return nh.moveObject(obj, geo.NoRegion, at, true)
}

// MoveObject is the GPS transition input: the object leaves from (its
// client broadcasts shrink) and enters to (grow). It mirrors the sim
// evader's Sink events. from must be the object's region, geo.NoRegion for
// an object not yet placed; a move from anywhere else is refused.
func (nh *NetHost) MoveObject(obj ObjectID, from, to geo.RegionID) error {
	return nh.moveObject(obj, from, to, false)
}

// moveObject moves obj to region to from the region objAt records for it,
// which gets the left input. Unless teleport is set, from must name that
// region. Everything is checked before objAt is written: a refused move must
// not have shrunk the path anywhere.
func (nh *NetHost) moveObject(obj ObjectID, from, to geo.RegionID, teleport bool) error {
	if t := nh.h.Tiling(); !t.Contains(to) || (from != geo.NoRegion && !t.Contains(from)) {
		return fmt.Errorf("tracker: move %v → %v: region out of range", from, to)
	}
	nh.mu.Lock()
	cur, placed := nh.objAt[obj]
	if !placed {
		cur = geo.NoRegion
	}
	if !teleport && from != cur {
		nh.mu.Unlock()
		return fmt.Errorf("tracker: move of object %v from %v: it is at %v", obj, from, cur)
	}
	nh.objAt[obj] = to
	nh.mu.Unlock()
	if cur != geo.NoRegion && cur != to {
		// A dead origin region simply misses the left input: its restart
		// resets detection anyway.
		_ = nh.svc.Inject(cur, func(n *nethost.Node) { nh.region(n).client.leave(obj) })
	}
	err := nh.svc.Inject(to, func(n *nethost.Node) { nh.region(n).client.enter(obj) })
	if errors.Is(err, nethost.ErrRegionDown) {
		// The object entered a crashed region: detection is lost until the
		// region restarts, when OnStart re-detects it from objAt.
		return nil
	}
	return err
}

// Find issues a find input at a client in region origin for the default
// object; the found output arrives through the OnFound callback.
func (nh *NetHost) Find(origin geo.RegionID) (FindID, error) {
	return nh.FindObject(origin, DefaultObject)
}

// FindObject is Find for one of several tracked objects. A find for an
// object no input has placed is refused: nothing could answer it, so its
// record would outlive it. A refused find gives its id back, as on the sim
// hosts, unless a concurrent find has taken the next one meanwhile.
func (nh *NetHost) FindObject(origin geo.RegionID, obj ObjectID) (FindID, error) {
	id, prev, err := nh.openFind(obj, nh.svc.Now())
	if err != nil {
		return 0, err
	}
	p := FindPayload{ID: id, Origin: origin}
	if err := nh.svc.Inject(origin, func(n *nethost.Node) { _ = nh.region(n).client.find(obj, p) }); err != nil {
		nh.mu.Lock()
		nh.finds.withdraw(id, prev)
		nh.mu.Unlock()
		return 0, err
	}
	return id, nil
}

// openFind issues the next find id for obj at instant at; prev is what
// withdraw needs.
func (nh *NetHost) openFind(obj ObjectID, at sim.Time) (id, prev FindID, err error) {
	nh.mu.Lock()
	defer nh.mu.Unlock()
	if _, placed := nh.objAt[obj]; !placed {
		return 0, 0, fmt.Errorf("tracker: find for object %v, which no input has placed", obj)
	}
	id = nh.finds.seq + 1
	prev, err = nh.finds.issue(id, at)
	return id, prev, err
}

// FindDone reports whether a found output for the find has occurred: the
// id was issued and is no longer outstanding.
func (nh *NetHost) FindDone(id FindID) bool {
	nh.mu.Lock()
	defer nh.mu.Unlock()
	return nh.finds.done(id)
}

// reportFound completes an outstanding find on its first found output (the
// broadcast reaches the evader's region and its neighbors, so later copies
// find it retired and are dropped) and records the find-completion latency
// in the service ledger.
func (nh *NetHost) reportFound(obj ObjectID, p FindPayload, at geo.RegionID) {
	nh.mu.Lock()
	start, outstanding := nh.finds.retire(p.ID)
	nh.mu.Unlock()
	if !outstanding {
		return
	}
	nh.svc.RecordLatency("net/find", time.Duration(nh.svc.Now()-start))
	if nh.onFound != nil {
		nh.onFound(FindResult{ID: p.ID, Object: obj, Origin: p.Origin, FoundAt: at})
	}
}

// ClusterPointers snapshots (c, p, nbrptup, nbrptdown) of one cluster's
// process for the default object, by querying the head region's node in
// an input of its own (the only place the automaton may be read).
func (nh *NetHost) ClusterPointers(c hier.ClusterID) (cp, pp, up, down hier.ClusterID, err error) {
	return nh.ClusterPointersFor(c, DefaultObject)
}

// ClusterPointersFor is ClusterPointers for one tracked object.
func (nh *NetHost) ClusterPointersFor(c hier.ClusterID, obj ObjectID) (cp, pp, up, down hier.ClusterID, err error) {
	ch := make(chan [4]hier.ClusterID, 1)
	err = nh.svc.Inject(nh.h.Head(c), func(n *nethost.Node) {
		a := n.Automaton().(*Automaton)
		c0, p0, u0, d0 := a.procs[c].PointersFor(obj)
		ch <- [4]hier.ClusterID{c0, p0, u0, d0}
	})
	if err != nil {
		return hier.NoCluster, hier.NoCluster, hier.NoCluster, hier.NoCluster, err
	}
	select {
	case v := <-ch:
		return v[0], v[1], v[2], v[3], nil
	case <-time.After(10 * time.Second):
		return hier.NoCluster, hier.NoCluster, hier.NoCluster, hier.NoCluster,
			fmt.Errorf("tracker: pointer snapshot of %v timed out", c)
	}
}
