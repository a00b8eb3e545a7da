package tracker

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"vinestalk/internal/cgcast"
	"vinestalk/internal/emul"
	"vinestalk/internal/evader"
	"vinestalk/internal/geo"
	"vinestalk/internal/hier"
	"vinestalk/internal/sim"
	"vinestalk/internal/trace"
	"vinestalk/internal/vsa"
)

// HeartbeatConfig enables the §VII extension: clients detecting the evader
// re-broadcast their detection every Period, refreshes climb the tracking
// path renewing per-process leases, and processes whose lease lapses clean
// themselves up. This heals the structure after VSA failures and restarts.
type HeartbeatConfig struct {
	// Period between client refresh broadcasts.
	Period sim.Time
	// leases[l] is precomputed by the network: generous enough for a
	// refresh to climb to level l between renewals.
	leases []sim.Time
}

func (hb *HeartbeatConfig) leaseFor(level int) sim.Time {
	if len(hb.leases) == 0 {
		// computeLeases has not run (a HeartbeatConfig built outside
		// Network.New): fall back to the level-0 lease term, which every
		// computed lease is at least.
		return 2 * hb.Period
	}
	if level >= len(hb.leases) {
		level = len(hb.leases) - 1
	}
	if level < 0 {
		level = 0
	}
	return hb.leases[level]
}

// Transit describes one in-flight protocol message, as the lookAhead
// checker consumes it (Fig. 3 needs the set of grow/shrink-family messages
// in channels).
type Transit struct {
	Obj  ObjectID
	Kind string
	From hier.ClusterID // NoCluster for client-originated messages
	To   hier.ClusterID
}

// Network instantiates the Tracker automaton (one process per cluster)
// over a C-gcast service, hosts it on a substrate host (the oracle VSA
// layer, or the replicated mobile-node emulator under WithEmulation), hosts
// the client algorithm on the VSA layer's clients, and exposes the find API
// plus state snapshots for the correctness checkers.
type Network struct {
	cg         *cgcast.Service
	h          *hier.Hierarchy
	k          *sim.Kernel
	geom       hier.Geometry
	sched      Schedule
	hb         *HeartbeatConfig
	noLateral  bool
	replicated bool
	emulCfg    *emulationConfig

	aut        *Automaton
	oracleHost *oracleHost // nil on the emulated host
	emulHost   *emulHost   // nil on the oracle host
	clients    map[vsa.ClientID]*Client
	// cgKinds maps the Fig. 2 alphabet to the C-gcast kind table, resolved
	// once in New, so no send names its kind by a string.
	cgKinds [len(kindNames)]cgcast.KindIndex

	// moveInflight counts the grow/shrink-family copies sent and not yet
	// delivered or dropped: what MoveQuiescent waits for. It rises at a
	// send and falls at a delivery or a drop, by the delivery's kind.
	moveInflight int
	// finds is the find registry, in virtual time: FindObject's sequence,
	// raised by any larger id FindObjectAs issues.
	finds    findRegistry
	onFound  func(FindResult)
	evaderAt map[ObjectID]func() geo.RegionID
	tr       *trace.Tracer
	// moveEpochs counts region changes per object for trace op
	// correlation: concurrent cascades of different objects carry
	// distinct OpMoveFor ids instead of sharing one global counter.
	moveEpochs map[ObjectID]uint64

	maxQueryLevel int   // highest level that ran a findquery since the last reset
	growRecv      []int // grow receipts per level (Theorem 4.9 amortization)
}

// Option configures a Network.
type Option interface{ apply(*Network) }

type scheduleOption struct{ sched Schedule }

func (o scheduleOption) apply(n *Network) { n.sched = o.sched }

// WithSchedule overrides the default grow/shrink timer schedule. It must
// satisfy condition (1); New validates it.
func WithSchedule(s Schedule) Option { return scheduleOption{sched: s} }

type heartbeatOption struct{ period sim.Time }

func (o heartbeatOption) apply(n *Network) { n.hb = &HeartbeatConfig{Period: o.period} }

// WithHeartbeat enables the §VII failure-recovery extension with the given
// client refresh period.
func WithHeartbeat(period sim.Time) Option { return heartbeatOption{period: period} }

type replicationOption struct{}

func (replicationOption) apply(n *Network) { n.replicated = true }

// WithHeadReplication enables the §VII quorum extension at the tracker: a
// warm-standby replica of every multi-member cluster's process runs at the
// cluster's alternate head, consuming the same (duplicated) message stream
// but emitting only while the primary head's VSA is down. The C-gcast
// service must be built with cgcast.WithReplication.
func WithHeadReplication() Option { return replicationOption{} }

type noLateralOption struct{}

func (noLateralOption) apply(n *Network) { n.noLateral = true }

// WithoutLateralLinks disables lateral links: a growing path always climbs
// to the hierarchy parent. This is the baseline VINESTALK's §IV motivates
// against — it suffers the "dithering" problem on multi-level cluster
// boundaries (experiment E3).
func WithoutLateralLinks() Option { return noLateralOption{} }

type tracerOption struct{ tr *trace.Tracer }

func (o tracerOption) apply(n *Network) { n.tr = o.tr }

// WithTracer streams protocol-level events (sends, deliveries, found
// outputs, VSA resets) into the given tracer for narrated runs and
// debugging.
func WithTracer(tr *trace.Tracer) Option { return tracerOption{tr: tr} }

type foundOption struct{ fn func(FindResult) }

func (o foundOption) apply(n *Network) { n.onFound = o.fn }

// WithFoundCallback registers the harness callback invoked once per
// completed find.
func WithFoundCallback(fn func(FindResult)) Option { return foundOption{fn: fn} }

type emulationConfig struct {
	delta    sim.Time
	tRestart sim.Time
}

type emulationOption struct{ cfg emulationConfig }

func (o emulationOption) apply(n *Network) { c := o.cfg; n.emulCfg = &c }

// WithEmulation hosts the Tracker automaton on the replicated mobile-node
// emulator (internal/emul) instead of executing it directly on the oracle
// VSA layer: every region's machine state lives in the emulating nodes'
// replicas, inputs are leader-sequenced, and the machine survives leader
// handoff, joiner checkpointing, and node churn. delta is the intra-region
// broadcast delay (0 runs the emulation in lockstep with the oracle's
// timing — the commit point coincides with the oracle's delivery time, so
// outputs match the oracle exactly); tRestart is the §II-C.2 restart
// delay after a region empties.
//
// After New, add emulating nodes via Emulator().AddNode and call
// Emulator().Boot() once the initial population is placed. The VSA layer
// should be built always-alive: region liveness is the emulator's
// authority in this mode.
func WithEmulation(delta, tRestart sim.Time) Option {
	return emulationOption{cfg: emulationConfig{delta: delta, tRestart: tRestart}}
}

// New builds the tracker network over an assembled C-gcast service, using
// the same geometry the service was built with. It creates the Tracker
// automaton (all cluster processes), attaches it to its substrate host,
// and registers a VSA handler for every region; call AddClient (or
// AddStationaryClients) before starting the evader.
func New(cg *cgcast.Service, geom hier.Geometry, opts ...Option) (*Network, error) {
	h := cg.Hierarchy()
	n := &Network{
		cg:         cg,
		h:          h,
		k:          cg.Kernel(),
		geom:       geom,
		sched:      DefaultSchedule(geom, cg.Unit()),
		clients:    make(map[vsa.ClientID]*Client),
		finds:      findRegistry{open: make(map[FindID]sim.Time)},
		evaderAt:   make(map[ObjectID]func() geo.RegionID),
		moveEpochs: make(map[ObjectID]uint64),
	}
	for _, o := range opts {
		o.apply(n)
	}
	if err := n.sched.Validate(geom, cg.Unit()); err != nil {
		return nil, err
	}
	if n.hb != nil {
		n.hb.leases = computeLeases(h, geom, n.sched, cg.Unit(), n.hb.Period)
	}
	if n.replicated != cg.Replicated() {
		return nil, fmt.Errorf("tracker: head replication mismatch: network %v, C-gcast %v", n.replicated, cg.Replicated())
	}

	for c := kindGrow; int(c) < len(kindNames); c++ {
		k, err := cg.InternKind(kindNames[c])
		if err != nil {
			return nil, err
		}
		n.cgKinds[c] = k
	}

	aut, err := newAutomaton(n)
	if err != nil {
		return nil, err
	}
	n.aut = aut
	cg.OnDrop(n.noteDropped)
	if n.emulCfg != nil {
		eh := newEmulHost(n, n.aut, n.emulCfg.delta, n.emulCfg.tRestart)
		n.emulHost = eh
		n.aut.attach(eh, eh)
		for u := 0; u < h.Tiling().NumRegions(); u++ {
			region := geo.RegionID(u)
			cg.Layer().RegisterVSA(region, emulRegionHandler{host: eh, u: region})
		}
	} else {
		oh := newOracleHost(n, n.aut)
		n.oracleHost = oh
		n.aut.attach(oh, oh)
		// Only here do the tables a delivery reads outlive the call: the
		// emulated host decodes each region's rows afresh for every input.
		cg.OnPrefetch(n.prefetch)
		for u := 0; u < h.Tiling().NumRegions(); u++ {
			region := geo.RegionID(u)
			cg.Layer().RegisterVSA(region, oracleRegionHandler{host: oh, u: region})
		}
	}
	return n, nil
}

// computeLeases is the lease derivation shared by every host: leases[l] is
// two refresh periods plus twice the worst-case time for a refresh to climb
// to level l (grow waits plus parent-hop delays), plus a unit.
func computeLeases(h *hier.Hierarchy, geom hier.Geometry, sched Schedule, unit, period sim.Time) []sim.Time {
	m := h.MaxLevel()
	leases := make([]sim.Time, m+1)
	climb := sim.Time(0)
	for l := 0; l <= m; l++ {
		if l > 0 {
			climb += sched.S[l-1] + unit*sim.Time(geom.P[l-1])
		}
		leases[l] = 2*period + 2*climb + unit
	}
	return leases
}

// Hierarchy returns the cluster hierarchy.
func (n *Network) Hierarchy() *hier.Hierarchy { return n.h }

// Kernel returns the simulation kernel.
func (n *Network) Kernel() *sim.Kernel { return n.k }

// Schedule returns the grow/shrink timer schedule in force.
func (n *Network) Schedule() Schedule { return n.sched }

// Automaton returns the pure Tracker machine the network hosts.
func (n *Network) Automaton() *Automaton { return n.aut }

// Emulator is the replicated mobile-node emulator, running the Tracker
// automaton as its program.
type Emulator = emul.Emulator[emulInput, emulEffect]

// Emulator returns the replicated mobile-node emulator hosting the
// automaton, or nil when the network runs on the oracle host.
func (n *Network) Emulator() *Emulator {
	if n.emulHost == nil {
		return nil
	}
	return n.emulHost.em
}

// ArmedWakeups returns the number of host wakeups armed for region u, read
// from the wakeup pool's per-region count. A region whose machine state is
// gone (failed, or restarted into its initial state) holds none. On the
// oracle host the count is exactly the armed timer variables of u's rows,
// a decoded region's included; on the emulated host it is the timer writes
// the region's leaders have committed and not yet seen fire or clear.
func (n *Network) ArmedWakeups(u geo.RegionID) int {
	if n.emulHost != nil {
		return n.emulHost.wakeups.armedIn(u)
	}
	return n.oracleHost.wakeups.armedIn(u)
}

// Process returns the (primary) Tracker process for a cluster.
func (n *Network) Process(c hier.ClusterID) *Process {
	if !c.Valid() || int(c) >= len(n.aut.procs) {
		return nil
	}
	return n.aut.procs[c]
}

// BackupProcess returns the warm-standby replica at the cluster's
// alternate head, or nil without head replication.
func (n *Network) BackupProcess(c hier.ClusterID) *Process {
	if !c.Valid() || int(c) >= len(n.aut.backups) {
		return nil
	}
	return n.aut.backups[c]
}

// opFor derives the trace operation id a protocol message belongs to:
// find-family messages carrying payloads correlate to their find id, and
// grow/shrink-family messages correlate to the sending object's current
// move epoch (the cascade triggered by that object's most recent region
// change).
func (n *Network) opFor(obj ObjectID, kind string, body *cgcast.Body) uint64 {
	switch kind {
	case KindFind, KindFound:
		if ps := findsOf(body); len(ps) > 0 {
			return trace.OpFind(int64(ps[0].ID))
		}
	case KindGrow, KindGrowNbr, KindGrowPar, KindShrink, KindShrinkUpd:
		return trace.OpMoveFor(int32(obj), n.moveEpochs[obj])
	}
	return 0
}

// count moves the in-flight count by d copies of a message of the named
// kind: +Copies at a send C-gcast accepted, −1 at a delivery or a drop.
func (n *Network) count(kind string, d int) {
	if moveFamily(kind) {
		n.moveInflight += d
	}
}

// noteDropped is the C-gcast service's drop consumer: a message died instead
// of reaching the process it was addressed to, and is counted off here
// — or every later quiescence check would wait on a message that can never
// arrive.
func (n *Network) noteDropped(_ geo.RegionID, _ int, d *cgcast.Delivery) { n.count(d.Kind, -1) }

// prefetch is the C-gcast service's look-ahead consumer on the oracle host.
// Before a frame of several messages is delivered, it asks for the line
// each delivery reads first: the message's home slot in the addressed
// process's table, where the lookup of its object starts. The frame's misses
// then overlap instead of being paid one message at a time. It is only a
// hint and writes nothing: a region outside the tiling, a level the region
// does not host or an empty table asks for nothing.
func (n *Network) prefetch(u geo.RegionID, level int, b *cgcast.Body) {
	if pr := n.aut.processAt(u, level); pr != nil {
		pr.objs.prefetch(ObjectID(b.Obj))
	}
}

// AddClient installs a tracker client (sensor node) with the given id at
// region u and registers it with the VSA layer.
func (n *Network) AddClient(id vsa.ClientID, u geo.RegionID) (*Client, error) {
	if _, dup := n.clients[id]; dup {
		return nil, fmt.Errorf("tracker: client %v already exists", id)
	}
	c := &Client{net: n, id: id}
	c.core = clientCore{port: c, heartbeat: n.hb != nil, here: make(map[ObjectID]uint64)}
	if err := n.cg.Layer().AddClient(id, u, c); err != nil {
		return nil, err
	}
	n.clients[id] = c
	return c, nil
}

// AddStationaryClients deploys one client per region — the standard sensor
// deployment of the experiments — with client ids equal to region ids.
func (n *Network) AddStationaryClients() error {
	for u := 0; u < n.h.Tiling().NumRegions(); u++ {
		if _, err := n.AddClient(vsa.ClientID(u), geo.RegionID(u)); err != nil {
			return err
		}
	}
	return nil
}

// Client returns the tracker client with the given id, or nil.
func (n *Network) Client(id vsa.ClientID) *Client { return n.clients[id] }

// Sink adapts the network's client population to the evader GPS service:
// move/left inputs reach every alive client in the affected region.
func (n *Network) Sink() evader.Sink { return n.SinkFor(DefaultObject) }

// SinkFor returns the GPS sink for one of several tracked objects.
func (n *Network) SinkFor(obj ObjectID) evader.Sink {
	return func(u geo.RegionID, ev evader.Event) {
		n.handleObjectEvent(obj, u, ev == evader.EventMove)
	}
}

// AttachEvader lets clients detect an evader already present in a region
// they enter or restart in (the augmented GPS of §III only reports evader
// *transitions*; a sensor node arriving where the object sits would detect
// it too, and the §VII heartbeat extension needs some detector to survive
// client churn in the evader's region).
func (n *Network) AttachEvader(at func() geo.RegionID) {
	n.AttachObject(DefaultObject, at)
}

// AttachObject is AttachEvader for one of several tracked objects.
func (n *Network) AttachObject(obj ObjectID, at func() geo.RegionID) {
	n.evaderAt[obj] = at
}

// Attached reports whether obj has a registered position hook.
func (n *Network) Attached(obj ObjectID) bool {
	_, ok := n.evaderAt[obj]
	return ok
}

// RemoveObject stops tracking an object: its current region's clients get
// a left input — dismantling the tracking path through the normal shrink
// cascade — and the object's GPS attachment is dropped. Once the cascade
// settles, the per-object quiescence rule has evicted every state vector
// the object occupied, returning region state and encodings to their
// pre-object baseline.
func (n *Network) RemoveObject(obj ObjectID) error {
	at, ok := n.evaderAt[obj]
	if !ok {
		return fmt.Errorf("tracker: object %v not attached", obj)
	}
	delete(n.evaderAt, obj)
	n.handleObjectEvent(obj, at(), false)
	return nil
}

func (n *Network) handleObjectEvent(obj ObjectID, u geo.RegionID, entered bool) {
	if entered {
		// A new move epoch for this object: the grow/shrink cascade the
		// region change triggers is correlated under OpMoveFor(obj, epoch).
		n.moveEpochs[obj]++
	}
	for _, id := range n.cg.Layer().ClientsIn(u) {
		if c, ok := n.clients[id]; ok {
			if entered {
				c.core.enter(obj)
			} else {
				c.core.leave(obj)
			}
		}
	}
}

// Find issues a find input at a client in region u (any alive client
// there). It returns the find's id; the found output is reported through
// the WithFoundCallback hook.
func (n *Network) Find(u geo.RegionID) (FindID, error) {
	return n.FindObject(u, DefaultObject)
}

// FindObject is Find for one of several tracked objects. A find for an
// object that no GPS input has placed is refused. A refused find does not
// take an id: the next find is issued under the id it would have had.
func (n *Network) FindObject(u geo.RegionID, obj ObjectID) (FindID, error) {
	id := n.finds.seq + 1
	if err := n.FindObjectAs(id, u, obj); err != nil {
		return 0, err
	}
	return id, nil
}

// FindObjectAs issues a find with a caller-chosen id instead of the
// network's own sequence. The parallel tracker needs this: each home
// shard's stack runs its own Network, and a shared global id space keeps
// find ids — and therefore found outputs and per-find latency samples —
// identical no matter how the objects are split across shards. An id that
// is outstanding is refused. The network keeps no record of a retired
// find, so not reusing an id once its find has retired is the caller's
// part; FindObject's ids start above every id issued here.
func (n *Network) FindObjectAs(id FindID, u geo.RegionID, obj ObjectID) error {
	prev, err := n.finds.issue(id, n.k.Now())
	if err == nil {
		if err = n.findAt(id, u, obj); err != nil {
			n.finds.withdraw(id, prev)
		}
	}
	return err
}

// findAt hands find id's input to the first alive client in region u.
func (n *Network) findAt(id FindID, u geo.RegionID, obj ObjectID) error {
	if n.moveEpochs[obj] == 0 {
		// Nothing could answer the find, so its record would outlive it.
		return fmt.Errorf("tracker: find for object %v, which no input has placed", obj)
	}
	ids := n.cg.Layer().ClientsIn(u)
	if len(ids) == 0 {
		return fmt.Errorf("tracker: no alive client in region %v to receive find input", u)
	}
	c, ok := n.clients[ids[0]]
	if !ok {
		return fmt.Errorf("tracker: client %v not part of this network", ids[0])
	}
	return c.core.find(obj, FindPayload{ID: id, Origin: u})
}

// FindIssued returns the virtual time of the find's input while the find
// is outstanding, and inside the found callback that retires it.
func (n *Network) FindIssued(id FindID) (sim.Time, bool) {
	at, ok := n.finds.open[id]
	return at, ok
}

// FindDone reports whether a found output for the find has occurred: the
// id was issued on this network and is no longer outstanding.
func (n *Network) FindDone(id FindID) bool { return n.finds.done(id) }

// reportFound reports the first found output of an outstanding find and
// then retires the find. Several clients in the evader's region may output
// for one find; a found for an id that is not outstanding, whether such a
// duplicate or one that arrives before its find's input, is dropped.
func (n *Network) reportFound(obj ObjectID, p FindPayload, at geo.RegionID) {
	if _, outstanding := n.finds.open[p.ID]; !outstanding {
		return
	}
	n.tr.Emit(trace.Event{
		At: n.k.Now(), Kind: "found", Op: trace.OpFind(int64(p.ID)),
		Obj: int32(obj), From: -1, To: -1, Region: int32(at), Level: -1,
	})
	if n.onFound != nil {
		n.onFound(FindResult{ID: p.ID, Object: obj, Origin: p.Origin, FoundAt: at})
	}
	n.finds.retire(p.ID)
}

// OutstandingFinds returns how many finds are outstanding: the number of
// find records the network holds.
func (n *Network) OutstandingFinds() int { return len(n.finds.open) }

// MoveQuiescent reports whether all move-related activity has settled: no
// grow/shrink-family messages in flight and no armed grow/shrink timers.
// Experiments use it to detect that a move's updates terminated (Thm 4.5).
func (n *Network) MoveQuiescent() bool {
	return n.moveInflight == 0 && n.aut.armedMove == 0
}

// InTransit returns the in-flight protocol messages (sorted, for
// determinism), as the lookAhead checker consumes them: every message
// C-gcast holds (cgcast.Service.InFlight) and, on the emulated host, every
// delivery a region took and has not committed (emul.Emulator.Uncommitted).
// Call it between kernel events, as InFlight asks.
func (n *Network) InTransit() []Transit {
	return n.inTransit(func(ObjectID) bool { return true })
}

// InTransitFor returns the in-flight messages concerning one object.
func (n *Network) InTransitFor(obj ObjectID) []Transit {
	return n.inTransit(func(o ObjectID) bool { return o == obj })
}

// inTransit lists the in-flight messages of the objects want selects, one
// entry per copy, sorted.
func (n *Network) inTransit(want func(ObjectID) bool) []Transit {
	var out []Transit
	n.cg.InFlight(func(u geo.RegionID, level int, d *cgcast.Delivery) {
		if want(ObjectID(d.Obj)) {
			out = append(out, n.transitOf(u, level, d))
		}
	})
	if h := n.emulHost; h != nil {
		for u := range h.aut.regions {
			h.em.Uncommitted(geo.RegionID(u), func(in emul.Input[emulInput]) {
				if m := &in.Msg; !m.wakeup && want(ObjectID(m.del.Obj)) {
					out = append(out, n.transitOf(m.u, m.level, &m.del))
				}
			})
		}
	}
	slices.SortFunc(out, func(a, b Transit) int {
		return cmp.Or(cmp.Compare(a.Obj, b.Obj), strings.Compare(a.Kind, b.Kind),
			cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	return out
}

// transitOf describes delivery d addressed to the process at (u, level): To
// is that process's cluster, which names a cluster's backup at its
// alternate head too.
func (n *Network) transitOf(u geo.RegionID, level int, d *cgcast.Delivery) Transit {
	to := hier.NoCluster
	if pr := n.aut.processAt(u, level); pr != nil {
		to = pr.id
	}
	return Transit{Obj: ObjectID(d.Obj), Kind: d.Kind, From: d.From, To: to}
}

// noteGrow counts a grow receipt at the given level — the pointer-update
// frequency the Theorem 4.9 amortization argument counts (a level-l
// pointer is updated at most once per q(l−1) steps of object movement).
func (n *Network) noteGrow(level int) {
	if n.growRecv == nil {
		n.growRecv = make([]int, n.h.MaxLevel()+1)
	}
	n.growRecv[level]++
}

// GrowReceiptsByLevel returns the per-level grow receipt counts since the
// last reset (index = hierarchy level).
func (n *Network) GrowReceiptsByLevel() []int {
	out := make([]int, n.h.MaxLevel()+1)
	copy(out, n.growRecv)
	return out
}

// ResetGrowReceipts clears the per-level grow counters.
func (n *Network) ResetGrowReceipts() { n.growRecv = nil }

// noteFindQuery records the level of an internal findquery action for the
// §VI instrumentation (the search phase's highest level).
func (n *Network) noteFindQuery(level int) {
	if level > n.maxQueryLevel {
		n.maxQueryLevel = level
	}
}

// MaxFindQueryLevel returns the highest hierarchy level at which any find
// ran its neighbor query since the last ResetFindQueryLevel. The §VI
// analysis bounds this at one level above the atomic case.
func (n *Network) MaxFindQueryLevel() int { return n.maxQueryLevel }

// ResetFindQueryLevel clears the MaxFindQueryLevel instrumentation.
func (n *Network) ResetFindQueryLevel() { n.maxQueryLevel = -1 }
