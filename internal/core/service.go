// Package core composes the full VINESTALK stack into the tracking service
// of paper §III: the grid tiling and cluster hierarchy, the VSA layer, the
// V-bcast/geocast/C-gcast communication services, the Tracker network, one
// sensor client per region, and the mobile object. It is the programming
// surface the examples, experiments, and benchmarks are written against.
package core

import (
	"errors"
	"fmt"
	"time"

	"vinestalk/internal/cgcast"
	"vinestalk/internal/chaos"
	"vinestalk/internal/emul"
	"vinestalk/internal/evader"
	"vinestalk/internal/geo"
	"vinestalk/internal/geocast"
	"vinestalk/internal/hier"
	"vinestalk/internal/lookahead"
	"vinestalk/internal/metrics"
	"vinestalk/internal/sim"
	"vinestalk/internal/trace"
	"vinestalk/internal/tracker"
	"vinestalk/internal/vbcast"
	"vinestalk/internal/vsa"
)

// Config describes a tracking-service deployment.
type Config struct {
	// Width and Height of the grid tiling (regions). Height defaults to
	// Width; Width is required.
	Width, Height int
	// Base r of the grid hierarchy (default 2).
	Base int
	// Delta is the physical broadcast delay δ (default 10ms).
	Delta sim.Time
	// E is the VSA emulation output lag e (default 5ms).
	E sim.Time
	// Seed for the deterministic simulation (default 1).
	Seed int64
	// ParallelTracker, when positive, selects the replica-stack parallel
	// tracker (NewParallel): K complete tracker stacks run on the K shards
	// of a sim.Sharded engine, objects are homed onto stacks by the logical
	// shard of their start region, and a cross-shard find reaches its home
	// stack δ later. K must be one of {1, 2, 4, 8} (a divisor of
	// the fixed logical home partition, so object→shard homing — and hence
	// every observable — is identical at every K). New and NewWithHierarchy
	// ignore the field: it is consumed by NewParallel, which builds each
	// stack with a ParallelTracker=0 copy of the config.
	ParallelTracker int
	// Start region of the evader (default region 0).
	Start geo.RegionID
	// AlwaysAliveVSAs pins VSAs alive (the paper's correctness assumption).
	AlwaysAliveVSAs bool
	// TRestart is the VSA restart delay when failures are enabled.
	TRestart sim.Time
	// Heartbeat enables the §VII failure-recovery extension with the given
	// client refresh period (zero disables it).
	Heartbeat sim.Time
	// Schedule overrides the default grow/shrink timers.
	Schedule *tracker.Schedule
	// NoLateralLinks disables lateral links (the dithering-prone baseline
	// of experiment E3).
	NoLateralLinks bool
	// ReplicatedHeads enables the §VII quorum extension: every
	// multi-member cluster runs a warm-standby process replica at an
	// alternate head region, every cluster message is delivered to both
	// heads (doubling message work), and the replica speaks for the
	// cluster while the primary head's VSA is down.
	ReplicatedHeads bool
	// BatchCgcast coalesces same-instant cluster-to-cluster traffic per
	// (source region, destination region, delivery round) into one wire
	// frame, so k objects multiplexed over one hierarchy pay one frame per
	// edge per round instead of k. Protocol semantics and per-message
	// "proto/" accounting are unchanged; frames appear in the ledger under
	// cgcast.FrameKind.
	BatchCgcast bool
	// CountFrames records cgcast.FrameKind ledger entries without enabling
	// batching (one frame per message-target send) — the unbatched side of
	// a batching comparison. Implied by BatchCgcast.
	CountFrames bool
	// FormulaGeometry uses the paper's closed-form grid parameters
	// (§II-B) for the C-gcast schedule instead of measuring the tight ones
	// — measurement is exhaustive and O(clusters · regions · members), so
	// large-grid experiments skip it. The formulas upper-bound the
	// measured values, which only makes the schedule more conservative.
	FormulaGeometry bool
	// OnFound is invoked once per completed find.
	OnFound func(tracker.FindResult)
	// Tracer, if set, receives protocol-level events for narrated runs.
	Tracer *trace.Tracer
	// Chaos, if set and enabled, installs a deterministic fault plan:
	// sampled message delays, scripted VSA crash windows, churn clients,
	// and permitted message loss (see internal/chaos).
	Chaos *chaos.Config
	// Emulation, if set, hosts the Tracker automaton on the replicated
	// mobile-node emulator (internal/emul) instead of executing it directly
	// on the oracle VSA layer. NodesPerRegion emulating nodes are deployed
	// per region and booted; node churn is then driven through
	// Service.Emulator(). Pair it with AlwaysAliveVSAs — region liveness is
	// the emulator's authority in this mode.
	Emulation *EmulationConfig
}

// EmulationConfig parameterizes the replicated VSA emulation substrate.
type EmulationConfig struct {
	// Delta is the intra-region broadcast delay of the emulation protocol.
	// Zero runs the emulation in lockstep with the oracle's timing: inputs
	// commit at the same virtual instant the oracle would execute them, so
	// tracker outputs match the oracle exactly while the full replication
	// machinery (leader sequencing, checkpoints, handoff) still runs.
	Delta sim.Time
	// TRestart is the §II-C.2 restart delay after a region empties of
	// emulating nodes (default 50ms).
	TRestart sim.Time
	// NodesPerRegion is the initial emulating-node population per region
	// (default 3). Node j of region u gets id u*NodesPerRegion + j.
	NodesPerRegion int
}

func (c *Config) fillDefaults() error {
	if c.Width <= 0 {
		return errors.New("core: Width must be positive")
	}
	if c.Height == 0 {
		c.Height = c.Width
	}
	if c.Base == 0 {
		c.Base = 2
	}
	if c.Delta == 0 {
		c.Delta = 10 * time.Millisecond
	}
	if c.E == 0 {
		c.E = 5 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ParallelTracker < 0 {
		return errors.New("core: ParallelTracker must be nonnegative")
	}
	if c.Emulation != nil {
		if c.Emulation.TRestart == 0 {
			c.Emulation.TRestart = 50 * time.Millisecond
		}
		if c.Emulation.NodesPerRegion == 0 {
			c.Emulation.NodesPerRegion = 3
		}
		if c.Emulation.NodesPerRegion < 0 {
			return errors.New("core: Emulation.NodesPerRegion must be positive")
		}
	}
	return nil
}

// Service is an assembled tracking service.
type Service struct {
	cfg    Config
	kernel *sim.Kernel
	tiling *geo.GridTiling
	hier   *hier.Hierarchy
	geom   hier.Geometry
	layer  *vsa.Layer
	ledger *metrics.Ledger
	cg     *cgcast.Service
	net    *tracker.Network
	ev     *evader.Evader
	// spec is atomicMoveSeq over the primary evader's moves, folded by the
	// evader's observer as they happen: CheckTheorem48's reference.
	spec *lookahead.Fold

	founds []tracker.FindResult
	// awaited is the find FindStats waits on, and awaitedAt the virtual
	// time of its found output (-1 until it occurs).
	awaited   tracker.FindID
	awaitedAt sim.Time
}

// New assembles and boots a tracking service: all substrate services are
// wired, one stationary client is deployed per region, every VSA starts
// alive, and the evader is placed at its start region (issuing the first
// move input, as the §IV-C executions assume).
func New(cfg Config) (*Service, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	tiling, err := geo.NewGridTiling(cfg.Width, cfg.Height)
	if err != nil {
		return nil, err
	}
	h, err := hier.NewGrid(tiling, cfg.Base)
	if err != nil {
		return nil, err
	}
	return NewWithHierarchy(h, cfg)
}

// NewWithHierarchy is New with a caller-supplied grid hierarchy (custom
// head selectors, pre-validated clusterings). The config's Width, Height
// and Base must describe the hierarchy's tiling.
func NewWithHierarchy(h *hier.Hierarchy, cfg Config) (*Service, error) {
	return buildService(h, cfg, buildParams{placeEvader: true})
}

// buildParams are the assembly knobs NewParallel uses to embed a Service as
// one replica stack of the parallel tracker: an externally owned kernel
// (one engine shard's), a geometry computed once and shared across stacks,
// and whether to place the primary evader (only the stack homing the start
// region does; the others track object 0 lazily through cascade traffic).
type buildParams struct {
	kern        *sim.Kernel
	geom        *hier.Geometry
	placeEvader bool
}

// buildService assembles a tracking service on either its own kernel (the
// sequential path) or a caller-supplied one (a parallel-engine shard).
func buildService(h *hier.Hierarchy, cfg Config, p buildParams) (*Service, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	tiling, ok := h.Tiling().(*geo.GridTiling)
	if !ok {
		return nil, errors.New("core: hierarchy is not over a grid tiling")
	}
	if tiling.Width() != cfg.Width || tiling.Height() != cfg.Height {
		return nil, fmt.Errorf("core: hierarchy tiling is %dx%d, config says %dx%d",
			tiling.Width(), tiling.Height(), cfg.Width, cfg.Height)
	}
	if !tiling.Contains(cfg.Start) {
		return nil, fmt.Errorf("core: start region %v outside the %dx%d grid", cfg.Start, cfg.Width, cfg.Height)
	}

	kern := p.kern
	if kern == nil {
		kern = sim.New(cfg.Seed)
	}
	s := &Service{cfg: cfg, kernel: kern, tiling: tiling, hier: h}
	var layerOpts []vsa.Option
	if cfg.AlwaysAliveVSAs {
		layerOpts = append(layerOpts, vsa.WithAlwaysAlive())
	}
	if cfg.TRestart > 0 {
		layerOpts = append(layerOpts, vsa.WithTRestart(cfg.TRestart))
	}
	s.layer = vsa.NewLayer(s.kernel, tiling, layerOpts...)
	s.ledger = metrics.NewLedger()
	vb := vbcast.New(s.kernel, s.layer, cfg.Delta, cfg.E, s.ledger)
	gc := geocast.New(s.kernel, s.layer, h.Graph(), vb, s.ledger)
	var plan *chaos.Plan
	if cfg.Chaos != nil && cfg.Chaos.Enabled() {
		var err error
		if plan, err = chaos.NewPlan(*cfg.Chaos); err != nil {
			return nil, err
		}
		vb.SetDelayModel(plan.DelayModel())
		gc.SetLoss(plan.LossFunc(s.kernel))
	}
	if p.geom != nil {
		s.geom = *p.geom
	} else if cfg.FormulaGeometry {
		s.geom = hier.GridFormulas(cfg.Base, h.MaxLevel())
	} else {
		s.geom = hier.MeasureGeometry(h)
	}
	var cgOpts []cgcast.Option
	if cfg.ReplicatedHeads {
		cgOpts = append(cgOpts, cgcast.WithReplication())
	}
	if cfg.BatchCgcast {
		cgOpts = append(cgOpts, cgcast.WithBatching())
	} else if cfg.CountFrames {
		cgOpts = append(cgOpts, cgcast.WithFrameAccounting())
	}
	cg, err := cgcast.New(h, s.layer, gc, vb, s.geom, s.ledger, cgOpts...)
	if err != nil {
		return nil, err
	}
	s.cg = cg

	netOpts := []tracker.Option{tracker.WithFoundCallback(func(r tracker.FindResult) {
		s.founds = append(s.founds, r)
		if r.ID == s.awaited {
			s.awaitedAt = s.kernel.Now()
		}
		if t0, ok := s.net.FindIssued(r.ID); ok {
			s.ledger.RecordLatency("find", time.Duration(s.kernel.Now()-t0))
		}
		if cfg.OnFound != nil {
			cfg.OnFound(r)
		}
	})}
	if cfg.Heartbeat > 0 {
		netOpts = append(netOpts, tracker.WithHeartbeat(cfg.Heartbeat))
	}
	if cfg.Schedule != nil {
		netOpts = append(netOpts, tracker.WithSchedule(*cfg.Schedule))
	}
	if cfg.NoLateralLinks {
		netOpts = append(netOpts, tracker.WithoutLateralLinks())
	}
	if cfg.ReplicatedHeads {
		netOpts = append(netOpts, tracker.WithHeadReplication())
	}
	if cfg.Tracer != nil {
		netOpts = append(netOpts, tracker.WithTracer(cfg.Tracer))
	}
	if cfg.Emulation != nil {
		netOpts = append(netOpts, tracker.WithEmulation(cfg.Emulation.Delta, cfg.Emulation.TRestart))
	}
	net, err := tracker.New(cg, s.geom, netOpts...)
	if err != nil {
		return nil, err
	}
	s.net = net
	if err := net.AddStationaryClients(); err != nil {
		return nil, err
	}
	s.layer.StartAllAlive()
	if cfg.Emulation != nil {
		em := net.Emulator()
		npr := cfg.Emulation.NodesPerRegion
		for u := 0; u < tiling.NumRegions(); u++ {
			for j := 0; j < npr; j++ {
				if err := em.AddNode(emul.NodeID(u*npr+j), geo.RegionID(u)); err != nil {
					return nil, err
				}
			}
		}
		em.Boot()
	}

	if p.placeEvader {
		ev, err := evader.New(tiling, cfg.Start, net.Sink())
		if err != nil {
			return nil, err
		}
		s.ev = ev
		s.spec = lookahead.Follow(h, ev)
		net.AttachEvader(ev.Region)
	}
	if plan != nil {
		// Churn client ids start above the stationary clients (one per
		// region, ids 0..NumRegions-1).
		firstID := vsa.ClientID(tiling.NumRegions())
		addClient := func(id vsa.ClientID, u geo.RegionID) error {
			_, err := net.AddClient(id, u)
			return err
		}
		if err := plan.Install(s.kernel, s.layer, addClient, firstID); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Kernel returns the simulation kernel.
func (s *Service) Kernel() *sim.Kernel { return s.kernel }

// Tiling returns the grid tiling.
func (s *Service) Tiling() *geo.GridTiling { return s.tiling }

// Hierarchy returns the cluster hierarchy.
func (s *Service) Hierarchy() *hier.Hierarchy { return s.hier }

// Geometry returns the measured geometry parameters.
func (s *Service) Geometry() hier.Geometry { return s.geom }

// Layer returns the VSA layer.
func (s *Service) Layer() *vsa.Layer { return s.layer }

// Ledger returns the shared metrics ledger.
func (s *Service) Ledger() *metrics.Ledger { return s.ledger }

// Network returns the tracker network.
func (s *Service) Network() *tracker.Network { return s.net }

// Emulator returns the replicated mobile-node emulator hosting the
// tracker, or nil when the service runs on the oracle host.
func (s *Service) Emulator() *tracker.Emulator { return s.net.Emulator() }

// Evader returns the mobile object.
func (s *Service) Evader() *evader.Evader { return s.ev }

// Founds returns the find results reported so far.
func (s *Service) Founds() []tracker.FindResult {
	return append([]tracker.FindResult(nil), s.founds...)
}

// Settle runs the simulation until the event queue drains. It fails with
// sim.ErrEventLimit if the protocol livelocks (or heartbeats are enabled,
// which keep the queue permanently busy — use RunFor instead then).
func (s *Service) Settle() error {
	if s.cfg.Heartbeat > 0 {
		return errors.New("core: Settle is unavailable with heartbeats enabled; use RunFor")
	}
	if _, err := s.kernel.RunLimited(20_000_000); err != nil {
		return err
	}
	if !s.net.MoveQuiescent() {
		return errors.New("core: event queue drained but network not move-quiescent")
	}
	return nil
}

// RunFor advances virtual time by d, processing due events.
func (s *Service) RunFor(d sim.Time) { s.kernel.RunFor(d) }

// MoveEvader relocates the evader one region (a neighbor of the current
// one) without waiting for tracking updates to complete.
func (s *Service) MoveEvader(to geo.RegionID) error { return s.ev.MoveTo(to) }

// Find issues a find input at a client in region u.
func (s *Service) Find(u geo.RegionID) (tracker.FindID, error) { return s.net.Find(u) }

// AddObject starts tracking an additional mobile object (§VII multiple
// objects): a new evader is placed at start and gets its own independent
// tracking structure over the same processes. The returned evader is
// driven like the primary one (MoveTo, or an evader.Walker).
func (s *Service) AddObject(obj tracker.ObjectID, start geo.RegionID) (*evader.Evader, error) {
	if obj == tracker.DefaultObject {
		return nil, errors.New("core: object 0 is the primary evader; pick a nonzero id")
	}
	if s.net.Attached(obj) {
		return nil, fmt.Errorf("core: object %v already attached", obj)
	}
	ev, err := evader.New(s.tiling, start, s.net.SinkFor(obj))
	if err != nil {
		return nil, err
	}
	s.net.AttachObject(obj, ev.Region)
	return ev, nil
}

// ObjectPlacement names one object of a bulk attach.
type ObjectPlacement struct {
	Obj   tracker.ObjectID
	Start geo.RegionID
}

// AddObjects starts tracking k additional objects in one bulk pass
// (tracker.Network.AttachObjects): the grow cascade runs once per distinct
// start region and every co-located object is spliced into the settled
// path's tables, so attach cost scales with distinct (region → root) paths
// instead of objects, while the resulting automaton state — and every
// region's canonical encoding — is byte-identical to attaching the objects
// one at a time with AddObject and settling. It runs the kernel internally,
// so call it at a settled instant; unavailable with heartbeats or under
// emulation. The returned evaders are driven like any other (MoveTo,
// evader.Walker).
func (s *Service) AddObjects(placements []ObjectPlacement) (map[tracker.ObjectID]*evader.Evader, error) {
	specs := make([]tracker.AttachSpec, len(placements))
	evs := make(map[tracker.ObjectID]*evader.Evader, len(placements))
	for i, p := range placements {
		if p.Obj == tracker.DefaultObject {
			return nil, errors.New("core: object 0 is the primary evader; pick nonzero ids")
		}
		ev, err := evader.NewPlaced(s.tiling, p.Start, s.net.SinkFor(p.Obj))
		if err != nil {
			return nil, err
		}
		evs[p.Obj] = ev
		specs[i] = tracker.AttachSpec{Obj: p.Obj, At: p.Start, Where: ev.Region}
	}
	if err := s.net.AttachObjects(specs); err != nil {
		return nil, err
	}
	return evs, nil
}

// RemoveObject stops tracking an object added with AddObject: its tracking
// path is dismantled through the normal shrink cascade, and once the
// network settles every region's per-object state and encoding are back at
// their pre-object baseline (the quiescence eviction rule).
func (s *Service) RemoveObject(obj tracker.ObjectID) error {
	if obj == tracker.DefaultObject {
		return errors.New("core: object 0 is the primary evader and cannot be removed")
	}
	return s.net.RemoveObject(obj)
}

// FindObject issues a find for one of several tracked objects.
func (s *Service) FindObject(u geo.RegionID, obj tracker.ObjectID) (tracker.FindID, error) {
	return s.net.FindObject(u, obj)
}

// FindDone reports whether the find has produced its found output.
func (s *Service) FindDone(id tracker.FindID) bool { return s.net.FindDone(id) }

// MoveStats reports the cost of one atomic move: it snapshots the ledger,
// moves the evader, settles, and returns the move's message count, hop
// work, and elapsed virtual time.
func (s *Service) MoveStats(to geo.RegionID) (msgs, work int64, elapsed sim.Time, err error) {
	before := s.ledger.Snapshot()
	start := s.kernel.Now()
	if err := s.ev.MoveTo(to); err != nil {
		return 0, 0, 0, err
	}
	if err := s.Settle(); err != nil {
		return 0, 0, 0, err
	}
	diff := s.ledger.Snapshot().Sub(before)
	elapsed = s.kernel.Now() - start
	s.ledger.RecordLatency("move", time.Duration(elapsed))
	return protoMessages(diff), protoWork(diff), elapsed, nil
}

// FindStats reports the cost of one atomic find issued at region u: the
// find's message count, hop work, and latency from find input to found
// output (read in the found callback).
func (s *Service) FindStats(u geo.RegionID) (msgs, work int64, latency sim.Time, err error) {
	before := s.ledger.Snapshot()
	start := s.kernel.Now()
	id, err := s.Find(u)
	if err != nil {
		return 0, 0, 0, err
	}
	s.awaited, s.awaitedAt = id, -1
	defer func() { s.awaited = 0 }()
	if err := s.Settle(); err != nil {
		return 0, 0, 0, err
	}
	if s.awaitedAt < 0 {
		return 0, 0, 0, fmt.Errorf("core: find %d from %v never completed", id, u)
	}
	diff := s.ledger.Snapshot().Sub(before)
	return protoMessages(diff), protoWork(diff), s.awaitedAt - start, nil
}

// CheckConsistent verifies the consistent-state predicate of §IV-C against
// the current (quiescent) state.
func (s *Service) CheckConsistent() error {
	return lookahead.Capture(s.net).IsConsistent(s.ev.Region())
}

// CheckTheorem48 verifies lookAhead(current state) = atomicMoveSeq(moves),
// the right-hand side being the spec the primary evader's observer has
// folded since the service was built. The check captures and compares the
// state once; its cost does not depend on how many moves came before it.
func (s *Service) CheckTheorem48() error {
	got := lookahead.LookAhead(lookahead.Capture(s.net))
	want, err := s.spec.State()
	if err != nil {
		return err
	}
	if diff := lookahead.Equal(got, want); diff != "" {
		return fmt.Errorf("core: Theorem 4.8 violated: %s", diff)
	}
	return nil
}

// protoMessages sums message counts over protocol kinds (transport-level
// hops excluded).
func protoMessages(snap metrics.Snapshot) int64 {
	var n int64
	for k, v := range snap.MsgCount {
		if len(k) > 6 && k[:6] == "proto/" {
			n += v
		}
	}
	return n
}

// protoWork sums hop work over protocol kinds.
func protoWork(snap metrics.Snapshot) int64 {
	var n int64
	for k, v := range snap.HopWork {
		if len(k) > 6 && k[:6] == "proto/" {
			n += v
		}
	}
	return n
}
