// Package cgcast implements C-gcast, the cluster geocast service of paper
// §II-C.3. It lets a VSA hosting a level-l cluster send messages to other
// cluster processes and to clients, and lets clients message their (or a
// neighboring) region's level-0 cluster.
//
// Delivery timing follows the paper's fixed schedule — when no VSA on the
// route fails, a message sent at time t is received at exactly:
//
//	(a) t + (δ+e)·n(l)   level-l cluster → neighboring cluster
//	(b) t + (δ+e)·p(l)   level-l cluster → parent, or parent → level-l child
//	(c) t + (δ+e)·2n(l)  level-l cluster → neighbor of a neighbor
//	(d) t + (δ+e)        level-0 cluster → own/neighbor region clients
//	(e) t + δ            client → own/neighbor region's level-0 cluster
//
// As in the paper, the service is implemented by sending each message via
// the geocast substrate to the destination cluster's head VSA, then holding
// it there until the scheduled time has transpired (the schedule's n/p
// terms upper-bound the actual transit time, which the hierarchy geometry
// guarantees).
package cgcast

import (
	"fmt"

	"vinestalk/internal/geo"
	"vinestalk/internal/geocast"
	"vinestalk/internal/hier"
	"vinestalk/internal/metrics"
	"vinestalk/internal/sim"
	"vinestalk/internal/vbcast"
	"vinestalk/internal/vsa"
)

// Delivery is what a cluster process or client receives: the protocol tag,
// the payload, and the sender's identity (a cluster, or a client's region
// for schedule-(e) messages).
type Delivery struct {
	Kind       string
	Payload    any
	From       hier.ClusterID // NoCluster when sent by a client
	FromRegion geo.RegionID   // sender's region (head region for clusters)
}

// Service is the cluster geocast service.
type Service struct {
	k         *sim.Kernel
	h         *hier.Hierarchy
	layer     *vsa.Layer
	gc        *geocast.Service
	vb        *vbcast.Service
	geom      hier.Geometry
	unit      sim.Time // δ+e
	ledger    *metrics.Ledger
	replicate bool
	batch     bool
	frames    bool
	pending   map[batchKey][]batchEntry
}

// Option configures the service.
type Option interface{ apply(*Service) }

type replicateOption struct{}

func (replicateOption) apply(s *Service) { s.replicate = true }

// WithReplication enables the §VII quorum extension at the transport:
// every cluster-addressed message is delivered to both the primary and the
// alternate head of the destination cluster (where one exists), doubling
// the per-message work — the "additional constant factor overhead" the
// paper predicts — in exchange for tolerating single-head VSA failures.
func WithReplication() Option { return replicateOption{} }

type batchOption struct{}

func (batchOption) apply(s *Service) {
	s.batch = true
	s.frames = true
	s.pending = make(map[batchKey][]batchEntry)
}

// WithBatching coalesces same-instant cluster-to-cluster traffic per
// (source region, destination region, scheduled delivery time) into one
// wire frame: with k objects multiplexed over one hierarchy, a round's k
// per-object cluster messages along one edge ride a single geocast send
// instead of k. Per-message protocol accounting ("proto/"+kind) is
// unchanged; the frames themselves are accounted under FrameKind. Batching
// implies frame accounting.
func WithBatching() Option { return batchOption{} }

type frameOption struct{}

func (frameOption) apply(s *Service) { s.frames = true }

// WithFrameAccounting records one FrameKind ledger entry per wire frame
// without enabling batching (unbatched, every message-target send is its
// own frame). Comparing FrameKind counts between a batched and an
// unbatched run of the same workload measures exactly what batching saves.
func WithFrameAccounting() Option { return frameOption{} }

// FrameKind is the ledger kind for cluster-to-cluster wire frames. Each
// recorded frame resolves to exactly one delivery or one named drop, like
// the per-message "proto/" kinds.
const FrameKind = "frame/cgcast"

// batchKey names one coalescing bucket: all cluster messages sent this
// instant from srcRegion to dstRegion with the same scheduled delivery
// time share one frame.
type batchKey struct {
	src, dst geo.RegionID
	due      sim.Time
}

// batchEntry is one cluster message riding a frame.
type batchEntry struct {
	del   Delivery
	level int
	kind  string // "proto/"-prefixed accounting kind
}

// New assembles the service. geom supplies the n and p parameters of the
// delivery schedule (use the measured geometry of the hierarchy, or the
// grid formulas).
func New(h *hier.Hierarchy, layer *vsa.Layer, gc *geocast.Service, vb *vbcast.Service, geom hier.Geometry, ledger *metrics.Ledger, opts ...Option) (*Service, error) {
	if geom.MaxLevel() < h.MaxLevel() {
		return nil, fmt.Errorf("cgcast: geometry covers %d levels, hierarchy has %d", geom.MaxLevel()+1, h.MaxLevel()+1)
	}
	s := &Service{
		k:      layer.Kernel(),
		h:      h,
		layer:  layer,
		gc:     gc,
		vb:     vb,
		geom:   geom,
		unit:   vb.Delta() + vb.E(),
		ledger: ledger,
	}
	for _, o := range opts {
		o.apply(s)
	}
	return s, nil
}

// Replicated reports whether head replication is enabled.
func (s *Service) Replicated() bool { return s.replicate }

// Batching reports whether same-instant frame coalescing is enabled.
func (s *Service) Batching() bool { return s.batch }

// Ledger returns the metrics ledger the service records into (possibly
// nil). Bulk operations that multiply a representative's accounting
// (tracker bulk attach) snapshot and merge through it.
func (s *Service) Ledger() *metrics.Ledger { return s.ledger }

// Copies returns the number of head regions a message to cluster c is
// delivered to under the current configuration.
func (s *Service) Copies(c hier.ClusterID) int {
	if s.replicate && s.h.AltHead(c) != geo.NoRegion {
		return 2
	}
	return 1
}

// Hierarchy returns the cluster hierarchy the service routes over.
func (s *Service) Hierarchy() *hier.Hierarchy { return s.h }

// Layer returns the underlying VSA layer.
func (s *Service) Layer() *vsa.Layer { return s.layer }

// Kernel returns the simulation kernel.
func (s *Service) Kernel() *sim.Kernel { return s.k }

// Unit returns δ+e, the per-distance-unit delay of the schedule.
func (s *Service) Unit() sim.Time { return s.unit }

// ScheduleDelay returns the paper's delivery delay from cluster from to
// cluster to. Relationships outside the schedule's five cases (e.g. a
// neighbor's child, reachable when a find chases a freshly-acquired
// pointer) are charged (δ+e) times the actual head-to-head hop distance.
func (s *Service) ScheduleDelay(from, to hier.ClusterID) sim.Time {
	return ScheduleDelayIn(s.h, s.geom, s.unit, from, to)
}

// ScheduleDelayIn is ScheduleDelay as a standalone function, for hosts
// that run the paper's delivery schedule without an assembled Service
// (e.g. a networked host computing frame due times).
func ScheduleDelayIn(h *hier.Hierarchy, geom hier.Geometry, unit sim.Time, from, to hier.ClusterID) sim.Time {
	if from == to {
		return 0
	}
	l := h.Level(from)
	switch {
	case h.AreNbrs(from, to):
		return unit * sim.Time(geom.N[l])
	case h.Parent(from) == to:
		return unit * sim.Time(geom.P[l])
	case h.Parent(to) == from:
		return unit * sim.Time(geom.P[h.Level(to)])
	case isNbrOfNbrIn(h, from, to):
		return unit * sim.Time(2*geom.N[l])
	default:
		d := h.Graph().Distance(h.Head(from), h.Head(to))
		if d < 1 {
			d = 1
		}
		return unit * sim.Time(d)
	}
}

func isNbrOfNbrIn(h *hier.Hierarchy, from, to hier.ClusterID) bool {
	if h.Level(from) != h.Level(to) {
		return false
	}
	for _, nb := range h.Nbrs(from) {
		if h.AreNbrs(nb, to) {
			return true
		}
	}
	return false
}

// ClusterToCluster sends a protocol message from one cluster process to
// another (cTOBsend(〈kind, from〉, to)). The message travels via geocast to
// to's head VSA and is processed there at exactly the scheduled time. It
// returns an error only if the sender's own VSA is dead; loss en route is
// silent, as in the layer's failure model.
func (s *Service) ClusterToCluster(from, to hier.ClusterID, kind string, payload any) error {
	return s.ClusterToClusterFrom(s.h.Head(from), from, to, kind, payload)
}

// ClusterToClusterFrom is ClusterToCluster with an explicit sending
// region: under head replication, a backup replica of cluster from sends
// from its own (alternate-head) region rather than the primary head.
func (s *Service) ClusterToClusterFrom(srcRegion geo.RegionID, from, to hier.ClusterID, kind string, payload any) error {
	if !from.Valid() || !to.Valid() {
		return fmt.Errorf("cgcast: invalid route %v -> %v", from, to)
	}
	targets := []geo.RegionID{s.h.Head(to)}
	if s.replicate {
		if alt := s.h.AltHead(to); alt != geo.NoRegion {
			targets = append(targets, alt)
		}
	}
	deliverAt := s.k.Now() + s.ScheduleDelay(from, to)
	del := Delivery{Kind: kind, Payload: payload, From: from, FromRegion: srcRegion}
	level := s.h.Level(to)
	var firstErr error
	protoKind := "proto/" + kind
	for _, dstRegion := range targets {
		s.record(kind, s.h.Graph().Distance(srcRegion, dstRegion))
		entry := batchEntry{del: del, level: level, kind: protoKind}
		if s.batch {
			s.enqueue(srcRegion, dstRegion, deliverAt, entry)
			continue
		}
		s.recordFrame(s.h.Graph().Distance(srcRegion, dstRegion))
		err := s.dispatch(srcRegion, dstRegion, deliverAt, []batchEntry{entry})
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// enqueue adds one cluster message to the (src, dst, due) frame under
// construction, opening the frame — and scheduling its end-of-instant
// flush — if this is the bucket's first message. Kernel events at one
// timestamp run in schedule order, so every same-instant send for this
// edge and round enqueued before the flush rides the same frame; a send
// arriving after the flush (possible when a delivery handler itself sends
// at the same instant) deterministically opens a second frame.
func (s *Service) enqueue(srcRegion, dstRegion geo.RegionID, deliverAt sim.Time, e batchEntry) {
	key := batchKey{src: srcRegion, dst: dstRegion, due: deliverAt}
	if q, ok := s.pending[key]; ok {
		s.pending[key] = append(q, e)
		return
	}
	s.pending[key] = []batchEntry{e}
	s.k.At(s.k.Now(), func() {
		entries := s.pending[key]
		delete(s.pending, key)
		if len(entries) == 0 {
			return
		}
		s.recordFrame(s.h.Graph().Distance(srcRegion, dstRegion))
		if err := s.dispatch(srcRegion, dstRegion, deliverAt, entries); err != nil {
			// The sending VSA died between enqueue and flush (same
			// instant); the whole frame dies unsent, and so does every
			// message riding it.
			s.recordFrameDrop(metrics.DropDeadVSA)
			for _, e := range entries {
				s.recordDrop(e.kind, metrics.DropDeadVSA)
			}
		}
	})
}

// dispatch sends one wire frame to dstRegion's VSA and holds it there
// until the scheduled time. The frame resolves to exactly one FrameKind
// delivery or drop: delivered when the holding VSA's memory survives until
// the due time, dropped when the substrate loses it or the holder
// fails/restarts first. Each message riding the frame then resolves its
// own "proto/" kind the same way the unbatched path always has.
func (s *Service) dispatch(srcRegion, dstRegion geo.RegionID, deliverAt sim.Time, entries []batchEntry) error {
	return s.gc.SendTracked(srcRegion, dstRegion, func() {
		// The frame is now held in dstRegion's VSA memory until the
		// scheduled time; it dies with the VSA.
		inc := s.layer.Incarnation(dstRegion)
		hold := deliverAt - s.k.Now()
		if hold < 0 {
			hold = 0
		}
		s.k.At(sim.Add(s.k.Now(), hold), func() {
			if s.layer.Incarnation(dstRegion) != inc {
				// The holding VSA failed or restarted before the
				// scheduled delivery time; the held frame dies with its
				// memory.
				s.recordFrameDrop(metrics.DropVSAReset)
				for _, e := range entries {
					s.recordDrop(e.kind, metrics.DropVSAReset)
				}
				return
			}
			s.recordFrameDelivery()
			for _, e := range entries {
				if !s.layer.DeliverToVSA(dstRegion, e.level, e.del) {
					s.recordDrop(e.kind, metrics.DropDeadVSA)
					continue
				}
				s.recordDelivery(e.kind)
			}
		})
	}, func(cause metrics.DropCause) {
		// The frame died in the geocast substrate; attribute it and every
		// message riding it so each per-kind send resolves to a delivery
		// or a named drop.
		s.recordFrameDrop(cause)
		for _, e := range entries {
			s.recordDrop(e.kind, cause)
		}
	})
}

// ClientToCluster sends from a client to a level-0 cluster in its own or a
// neighboring region, delivered after δ (schedule case e).
func (s *Service) ClientToCluster(from vsa.ClientID, to hier.ClusterID, kind string, payload any) error {
	if s.h.Level(to) != 0 {
		return fmt.Errorf("cgcast: clients may only address level-0 clusters, got level %d", s.h.Level(to))
	}
	srcRegion := s.layer.ClientRegion(from)
	if srcRegion == geo.NoRegion {
		return fmt.Errorf("cgcast: client %v not alive", from)
	}
	dstRegion := s.h.Head(to)
	s.record(kind, s.h.Graph().Distance(srcRegion, dstRegion))
	del := Delivery{Kind: kind, Payload: payload, From: hier.NoCluster, FromRegion: srcRegion}
	return s.vb.ClientToVSA(from, dstRegion, 0, del)
}

// ClusterToClients broadcasts from a level-0 cluster process to all clients
// in its own and neighboring regions, delivered after δ+e (schedule case
// d). This carries the found output of §V to the clients that answer it.
func (s *Service) ClusterToClients(from hier.ClusterID, kind string, payload any) error {
	if s.h.Level(from) != 0 {
		return fmt.Errorf("cgcast: only level-0 clusters broadcast to clients, got level %d", s.h.Level(from))
	}
	u := s.h.Head(from)
	targets := append([]geo.RegionID{u}, s.layer.Tiling().Neighbors(u)...)
	s.record(kind, len(targets)-1)
	del := Delivery{Kind: kind, Payload: payload, From: from, FromRegion: u}
	return s.vb.VSAToClients(u, targets, del)
}

func (s *Service) record(kind string, hops int) {
	if s.ledger != nil {
		if hops < 0 {
			hops = 0
		}
		s.ledger.RecordMessage("proto/"+kind, hops)
	}
}

// recordFrame charges one wire frame. Frames are accounted only when
// frame accounting is on (batching, or WithFrameAccounting) so default
// configurations keep their historical ledger totals.
func (s *Service) recordFrame(hops int) {
	if s.ledger != nil && s.frames {
		if hops < 0 {
			hops = 0
		}
		s.ledger.RecordMessage(FrameKind, hops)
	}
}

// recordFrameDelivery and recordFrameDrop resolve a charged frame; they
// gate on the same flag as recordFrame so the FrameKind row conserves
// exactly (sent == delivered + dropped) whether or not it exists.
func (s *Service) recordFrameDelivery() {
	if s.frames {
		s.recordDelivery(FrameKind)
	}
}

func (s *Service) recordFrameDrop(cause metrics.DropCause) {
	if s.frames {
		s.recordDrop(FrameKind, cause)
	}
}

func (s *Service) recordDelivery(kind string) {
	if s.ledger != nil {
		s.ledger.RecordDelivery(kind)
	}
}

func (s *Service) recordDrop(kind string, cause metrics.DropCause) {
	if s.ledger != nil {
		s.ledger.RecordDrop(kind, cause)
	}
}
