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

// NetHost runs the Tracker automaton on the networked host
// (internal/nethost): one goroutine per region, wall-clock timers, and the
// versioned wire codec as the message format. It plays the role the
// Network plays on the sim hosts — client algorithm, find bookkeeping,
// found deduplication — but against real concurrency: every region's
// machine and client state live on that region's node goroutine, and the
// host's own registries sit behind a mutex.
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
	// started is the only find registry: a find is outstanding iff its id is
	// a key (the value is its issue time), and its first found removes it.
	mu      sync.Mutex
	objAt   map[ObjectID]geo.RegionID
	findSeq FindID
	started map[FindID]sim.Time
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
	// OnFound is invoked once per completed find (off the node goroutines'
	// critical state, but concurrently with them).
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
		started: make(map[FindID]sim.Time),
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

// Attach binds the hosting service. Call after nethost.New and before
// Start (find and move inputs need it to reach node goroutines).
func (nh *NetHost) Attach(svc *nethost.Service) { nh.svc = svc }

// Hierarchy returns the cluster hierarchy.
func (nh *NetHost) Hierarchy() *hier.Hierarchy { return nh.h }

// netRegionState is the per-node state (Node.State): the §IV-A client
// algorithm's detection flags for the region's co-located sensor, and the
// scratch each inbound frame is decoded into. here maps a detected object
// to the epoch of its current detection (absent or 0 = not here); every
// detection takes a fresh epoch, which is what ends the heartbeat loop of
// an earlier one. del and finds are overwritten by the next frame: the
// automaton and reportFound copy what they keep of a delivery. Node-goroutine
// only.
type netRegionState struct {
	here  map[ObjectID]uint64
	epoch uint64
	del   cgcast.Delivery
	finds []FindPayload
}

func regionState(n *nethost.Node) *netRegionState {
	st, ok := n.State.(*netRegionState)
	if !ok {
		st = &netRegionState{here: make(map[ObjectID]uint64)}
		n.State = st
	}
	return st
}

// detect is the client's GPS "entered" input: record a fresh detection
// epoch, broadcast grow, and start the detection's heartbeat loop.
func (nh *NetHost) detect(n *nethost.Node, obj ObjectID) {
	st := regionState(n)
	st.epoch++
	st.here[obj] = st.epoch
	nh.clientSend(n, obj, KindGrow, nil)
	nh.armRefresh(n, obj, st.epoch)
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

// OnStart implements nethost.App: the region's co-located client re-runs
// its GPS detection, exactly like Client.GPSUpdate after a restart — if
// the tracked object sits here, broadcast a fresh detection and start the
// heartbeat. This is what lets a killed-and-restarted evader region
// re-seed the tracking structure.
func (nh *NetHost) OnStart(n *nethost.Node) {
	nh.mu.Lock()
	var present []ObjectID
	for obj, at := range nh.objAt {
		if at == n.Region() {
			present = append(present, obj)
		}
	}
	nh.mu.Unlock()
	for _, obj := range present {
		nh.detect(n, obj)
	}
}

// netOutlet is one node's outlet, called on the node goroutine: its
// automaton's sends and founds become frames, each message encoded straight
// into its frame's buffer, and its timers go to the node. Receipts and the
// §VI notes are accounting of the sim substrate, with no networked
// counterpart.
type netOutlet struct {
	nh *NetHost
	n  *nethost.Node
}

func (o netOutlet) send(u geo.RegionID, e sendEffect) {
	nh, h := o.nh, o.nh.h
	to := h.Head(e.To)
	due := o.n.Now() + cgcast.ScheduleDelayIn(h, nh.geom, nh.unit, e.From, e.To)
	nh.sendMsg(o.n, to, due, nh.hops(u, to), e.From, u, h.Level(e.To), e.Kind.String(), &e.Body)
}

// found broadcasts found to the clients of the cluster head's region and of
// its neighbours: one frame each, all due one unit from now.
func (o netOutlet) found(_ geo.RegionID, e foundEffect) {
	nh := o.nh
	head := nh.h.Head(e.From)
	due := o.n.Now() + nh.unit
	body := findsBody(e.Obj, e.Payloads)
	nh.sendMsg(o.n, head, due, 0, e.From, head, 0, KindFound, &body)
	for _, target := range nh.h.Tiling().Neighbors(head) {
		nh.sendMsg(o.n, target, due, nh.hops(head, target), e.From, head, 0, KindFound, &body)
	}
}

func (netOutlet) recv(geo.RegionID, hier.ClusterID, int, *cgcast.Delivery) {}
func (netOutlet) noteGrow(geo.RegionID, int)                               {}
func (netOutlet) noteQuery(geo.RegionID, int)                              {}

// timer arms or clears the node's timer; the node keeps its own index, so
// no ref is kept.
func (o netOutlet) timer(u geo.RegionID, id vsa.TimerID, at sim.Time, _ int32) int32 {
	if at == sim.Forever {
		o.n.ClearTimer(u, id)
	} else {
		o.n.SetTimer(u, id, at)
	}
	return 0
}

// sendMsg sends the message of the given kind from cluster from (in region
// fromRegion) to the process at level, with body b, to region to in a frame
// of its own due at due, charging hops. The frame's buffer is the one
// allocation: the message is written into it behind the header.
func (nh *NetHost) sendMsg(n *nethost.Node, to geo.RegionID, due sim.Time, hops int,
	from hier.ClusterID, fromRegion geo.RegionID, level int, kind string, b *cgcast.Body) {
	frame, err := AppendClusterMsg(nethost.NewFrame(to, due, kind, msgSize(kind, b)), from, fromRegion, level, kind, b)
	if err != nil {
		return
	}
	n.SendFrame(frame, hops)
}

// DeliverFrame implements nethost.App: decode one due frame into the node's
// scratch and feed it to the region's machine — or, for found broadcasts,
// to the region's client. The bytes are untrusted; a frame that fails the
// wire codec is dropped.
func (nh *NetHost) DeliverFrame(n *nethost.Node, kind string, payload []byte) {
	st := regionState(n)
	level, err := decodeClusterMsg(kind, payload, &st.del, &st.finds)
	if err != nil {
		return
	}
	if kind == KindFound {
		obj := ObjectID(st.del.Obj)
		if st.here[obj] == 0 {
			return
		}
		for _, p := range findsOf(&st.del.Body) {
			nh.reportFound(obj, p, n.Region())
		}
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
	d := nh.h.Graph().Distance(from, to)
	if d < 0 {
		d = 0
	}
	return d
}

// clientSend broadcasts a client message to the node's region's level-0
// cluster (cgcast ClientToCluster over the wire): due δ from now, from
// NoCluster so the receiving process treats it as a local detection. finds
// is a find's payload, nil for every other kind.
func (nh *NetHost) clientSend(n *nethost.Node, obj ObjectID, kind string, finds []FindPayload) {
	c0 := nh.h.Cluster(n.Region(), 0)
	if c0 == hier.NoCluster {
		return
	}
	head := nh.h.Head(c0)
	body := bodyFor(obj)
	if finds != nil {
		body = findsBody(obj, finds)
	}
	nh.sendMsg(n, head, n.Now()+nh.delta, nh.hops(n.Region(), head), hier.NoCluster, n.Region(), 0, kind, &body)
}

// armRefresh starts the §VII heartbeat loop of one detection: every period,
// while that detection (epoch) is still the object's current one here,
// re-broadcast a refresh. A departure or a newer detection ends the loop at
// its next tick, so an object has one loop per region however often it is
// placed or returns. The loop is node-local state — it dies with the node
// and OnStart revives it.
func (nh *NetHost) armRefresh(n *nethost.Node, obj ObjectID, epoch uint64) {
	if nh.hb == nil {
		return
	}
	n.RunAt(n.Now()+nh.hb.Period, func(n *nethost.Node) {
		if regionState(n).here[obj] != epoch {
			return
		}
		nh.clientSend(n, obj, KindRefresh, nil)
		nh.armRefresh(n, obj, epoch)
	})
}

// --- external inputs ---

// PlaceObject introduces (or teleports) a tracked object at region at:
// the region's client detects it and grows the initial path.
func (nh *NetHost) PlaceObject(obj ObjectID, at geo.RegionID) error {
	return nh.moveObject(obj, geo.NoRegion, at)
}

// MoveObject is the GPS transition input: the object leaves from (its
// client broadcasts shrink) and enters to (grow). It mirrors the sim
// evader's Sink events.
func (nh *NetHost) MoveObject(obj ObjectID, from, to geo.RegionID) error {
	return nh.moveObject(obj, from, to)
}

func (nh *NetHost) moveObject(obj ObjectID, from, to geo.RegionID) error {
	// Both ends are checked before the first mutation: a refused move must
	// not have shrunk the path at from or repointed objAt.
	if t := nh.h.Tiling(); !t.Contains(to) || (from != geo.NoRegion && !t.Contains(from)) {
		return fmt.Errorf("tracker: move %v → %v: region out of range", from, to)
	}
	nh.mu.Lock()
	nh.objAt[obj] = to
	nh.mu.Unlock()
	if from != geo.NoRegion && from != to {
		// A dead origin region simply misses the left input — its restart
		// resets detection anyway (OnStart only re-detects present objects).
		_ = nh.svc.Inject(from, func(n *nethost.Node) {
			st := regionState(n)
			if st.here[obj] == 0 {
				return
			}
			delete(st.here, obj)
			nh.clientSend(n, obj, KindShrink, nil)
		})
	}
	err := nh.svc.Inject(to, func(n *nethost.Node) { nh.detect(n, obj) })
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
// record would outlive it. A refused find does not keep its id (see below),
// so FindDone reads false for it.
func (nh *NetHost) FindObject(origin geo.RegionID, obj ObjectID) (FindID, error) {
	nh.mu.Lock()
	if _, placed := nh.objAt[obj]; !placed {
		nh.mu.Unlock()
		return 0, fmt.Errorf("tracker: find for object %v, which no input has placed", obj)
	}
	nh.findSeq++
	id := nh.findSeq
	nh.started[id] = nh.svc.Now()
	nh.mu.Unlock()
	p := FindPayload{ID: id, Origin: origin}
	err := nh.svc.Inject(origin, func(n *nethost.Node) {
		nh.clientSend(n, obj, KindFind, []FindPayload{p})
	})
	if err != nil {
		// A refused find gives its id back, as on the sim hosts, unless a
		// concurrent find has taken the next one meanwhile.
		nh.mu.Lock()
		delete(nh.started, id)
		if nh.findSeq == id {
			nh.findSeq--
		}
		nh.mu.Unlock()
		return 0, err
	}
	return id, nil
}

// FindDone reports whether a found output for the find has occurred: the
// id was issued and is no longer outstanding.
func (nh *NetHost) FindDone(id FindID) bool {
	nh.mu.Lock()
	defer nh.mu.Unlock()
	_, outstanding := nh.started[id]
	return id >= 1 && id <= nh.findSeq && !outstanding
}

// reportFound completes an outstanding find on its first found output (the
// broadcast reaches the evader's region and its neighbors, so later copies
// find the id gone) and records the find-completion latency in the service
// ledger. A found for an id that is not outstanding — a duplicate, or a
// frame for a find nobody issued — is ignored.
func (nh *NetHost) reportFound(obj ObjectID, p FindPayload, at geo.RegionID) {
	nh.mu.Lock()
	start, outstanding := nh.started[p.ID]
	delete(nh.started, p.ID)
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
// process for the default object, by querying the head region's node on
// its own goroutine (the only place the automaton may be read).
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
