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
	"math"

	"vinestalk/internal/geo"
	"vinestalk/internal/geocast"
	"vinestalk/internal/hier"
	"vinestalk/internal/metrics"
	"vinestalk/internal/sim"
	"vinestalk/internal/vbcast"
	"vinestalk/internal/vsa"
)

// Body is what a message says beyond its kind and sender. The fixed fields
// cover the Tracker alphabet without an allocation — the tracked object the
// message concerns and the one scalar some kinds add (the pointer a findAck
// answers with, a refresh's hop count) travel by value in the message's
// packed entry inside the frame that carries it — and Payload carries
// whatever does not fit them (a find's payload list, a foreign caller's own
// type), boxed by the sender. The body is copied whole from the send into
// the entry and from the entry into the Delivery a handler is handed.
type Body struct {
	Obj     int32
	Arg     int32
	Payload any
}

// Delivery is what a cluster process or client receives: the protocol tag,
// the sender's identity (a cluster, or a client's region for schedule-(e)
// messages), and the body. Handlers are handed a *Delivery that the service
// owns — a cluster message is unpacked from its packed frame entry into a
// Delivery the service holds for the call, a client broadcast's points into
// its envelope — so it is valid for the duration of the call, and a handler
// that keeps the message copies it.
type Delivery struct {
	Kind       string
	From       hier.ClusterID // NoCluster when sent by a client
	FromRegion geo.RegionID   // sender's region (head region for clusters)
	Body
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

	// kinds is the kind table: each protocol kind seen, with its "proto/"
	// ledger handle. A message carries its kind as an index into it, so no
	// send or delivery pays a string concatenation, a hashed ledger lookup or
	// a string comparison; at most maxKinds kinds fit a KindIndex.
	kinds []protoKind
	// held holds the Deliveries that handlers and the drop consumer are
	// handed, one per call depth: a frame entry is unpacked into
	// held[depth] for the call, and a message resolved during that call (a
	// handler's send that dies at once) is unpacked one level deeper, so no
	// call sees its Delivery overwritten.
	held  []*Delivery
	depth int
	// frameKind is FrameKind's handle under frame accounting (batching, or
	// WithFrameAccounting) and the zero handle — which records nothing —
	// otherwise, so default configurations keep their historical ledger
	// totals and the FrameKind row conserves whether or not it exists.
	frameKind metrics.Kind

	// open lists, per source region, the frames under construction this
	// instant (batching only). A region opens only a few (dst, due) buckets
	// an instant — bounded by its clusters' neighbours, parents and children
	// — so a scan of its list replaces a hashed lookup. free holds the frames
	// nothing is using; frames holds every frame ever allocated, live or
	// free, so InFlight finds the live ones without a link per message.
	open   [][]openFrame
	free   []*frame
	frames []*frame
	// segs holds the entry segments no frame is using, by size class: class
	// j holds segments of capacity 1<<j. A frame's first segment is of class
	// first: one entry unbatched, where a frame carries one message, and
	// batchFirst's class when batching. A frame keeps its first segment and
	// holds the others only while it is live, so what the pool keeps of a
	// class is the most segments of that class ever in use at once, not the
	// largest frame times the frames.
	segs  [][][]entry
	first int

	// envs holds the client envelopes nothing is using, and envelopes every
	// envelope ever allocated, as free and frames do for frames.
	envs      []*clientEnv
	envelopes []*clientEnv
	// targets is ClusterToClientsIndexed's scratch list of target regions.
	targets []geo.RegionID

	onDrop     func(u geo.RegionID, level int, d *Delivery)
	onPrefetch func(u geo.RegionID, level int, b *Body)
}

// protoKind is one entry of the kind table.
type protoKind struct {
	name string
	kind metrics.Kind
}

// KindIndex names a protocol kind by its place in a service's kind table
// (InternKind). A cluster message carries its kind as this one byte from
// send to delivery.
type KindIndex uint8

// maxKinds bounds the kind table at the range of a KindIndex, so an index
// never wraps onto another kind's "proto/" row.
const maxKinds = math.MaxUint8 + 1

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
	s.first = batchFirst
	s.frameKind = s.ledger.Kind(FrameKind)
	s.open = make([][]openFrame, s.layer.Tiling().NumRegions())
}

// WithBatching coalesces same-instant cluster-to-cluster traffic per
// (source region, destination region, scheduled delivery time) into one
// wire frame: with k objects multiplexed over one hierarchy, a round's k
// per-object cluster messages along one edge ride a single geocast send
// instead of k. Per-message protocol accounting (the "proto/" kinds) is
// unchanged; the frames themselves are accounted under FrameKind. Batching
// implies frame accounting.
func WithBatching() Option { return batchOption{} }

type frameOption struct{}

func (frameOption) apply(s *Service) { s.frameKind = s.ledger.Kind(FrameKind) }

// WithFrameAccounting records one FrameKind ledger entry per wire frame
// without enabling batching (unbatched, every message-target send is its
// own frame). Comparing FrameKind counts between a batched and an
// unbatched run of the same workload measures exactly what batching saves.
func WithFrameAccounting() Option { return frameOption{} }

// batchFirst is the class of a batched frame's first entry segment: 16
// entries, more than the 13.3 messages the average frame carries on a 16×16
// fan-out of 131 072 objects, so most frames take one segment.
const batchFirst = 4

// FrameKind is the ledger kind for cluster-to-cluster wire frames. Each
// recorded frame resolves to exactly one delivery or one named drop, like
// the per-message "proto/" kinds.
const FrameKind = "frame/cgcast"

// openFrame is one entry of a source region's open list: the coalescing
// bucket of all cluster messages sent this instant from that region to dst
// with delivery time due, and the frame they ride.
type openFrame struct {
	dst geo.RegionID
	due sim.Time
	f   *frame
}

// entry is one cluster message riding a frame, packed: the sender and the
// body, with the kind and the destination level one byte each. Every send
// writes one in place, field by field, into the next slot of its frame
// (push), often a cold line, and those stores hold the store buffer until
// the line arrives, so the record is kept to 40 bytes (TestEntryFits).
// deliver and drop unpack it into a Delivery the service holds for the
// call.
type entry struct {
	from       hier.ClusterID
	fromRegion int32 // the sending region
	body       Body
	kind       KindIndex
	level      uint8 // the destination cluster's level
}

// frame is one wire frame from the moment its first message is enqueued to
// the moment every message riding it has resolved to a delivery or a named
// drop. It is the geocast substrate's Receiver while in transit and the
// callback of its own flush and hold events, so a frame costs no closure.
// Its entries sit in segments of doubling size: its own first segment, then
// segments it takes from the service's size classes as it fills and gives
// back when it is released. A live frame belongs to exactly one of: its
// source region's open list (until its flush event), the geocast route
// carrying it, its hold event, or the deliver call iterating it. Every
// message riding a live frame is in flight (InFlight).
type frame struct {
	s         *Service
	src, dst  geo.RegionID
	due       sim.Time
	inc       uint64 // dst's incarnation when the frame arrived there
	live      bool
	n         int       // messages riding the frame
	segs      [][]entry // their entries in send order, segment j of class first+j
	flushFn   func()    // f.flush, bound once when the frame is first allocated
	deliverFn func()    // f.deliver, likewise
}

// clientEnv is one client broadcast from ClientToClusterIndexed to its
// resolution: the message, the target region and its incarnation at send
// time. It is the callback of its own arrival event, so a client broadcast
// costs no closure and no boxed Delivery; the handler or the drop consumer
// is handed &env.del, and the envelope goes back to the free list once that
// call returns.
type clientEnv struct {
	s        *Service
	del      Delivery
	target   geo.RegionID
	inc      uint64
	live     bool
	arriveFn func() // env.arrive, bound once when the envelope is first allocated
}

// New assembles the service. geom supplies the n and p parameters of the
// delivery schedule (use the measured geometry of the hierarchy, or the
// grid formulas).
func New(h *hier.Hierarchy, layer *vsa.Layer, gc *geocast.Service, vb *vbcast.Service, geom hier.Geometry, ledger *metrics.Ledger, opts ...Option) (*Service, error) {
	if geom.MaxLevel() < h.MaxLevel() {
		return nil, fmt.Errorf("cgcast: geometry covers %d levels, hierarchy has %d", geom.MaxLevel()+1, h.MaxLevel()+1)
	}
	if h.MaxLevel() > math.MaxUint8 {
		return nil, fmt.Errorf("cgcast: hierarchy has %d levels, a frame entry holds at most %d", h.MaxLevel()+1, math.MaxUint8+1)
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

// OnDrop registers the service's consumer of undelivered messages: fn runs
// for every cluster-addressed message that resolves as a drop instead of
// reaching its handler — its frame died in the geocast substrate or was
// flushed by a dead sender, the holding VSA reset before the due time, the
// destination VSA was down at delivery, or a client's broadcast found the
// VSA failed or restarted — with the region and level it was addressed to,
// after the drop is recorded. Every message accepted by a send therefore
// reaches either its VSAHandler or fn, exactly once. d is valid for the call.
func (s *Service) OnDrop(fn func(u geo.RegionID, level int, d *Delivery)) { s.onDrop = fn }

// OnPrefetch registers the service's look-ahead consumer: when a frame of
// two or more messages is due, fn runs for each of them, with the region
// and level it is addressed to and its body, before the first is delivered.
// The messages of a frame are independent and known in advance, so fn can
// start loading what their deliveries will read, and their cache misses
// overlap instead of being paid one at a time. fn is a hint: it must change
// no state, and a service without one delivers the same messages in the
// same order. b is valid for the call.
func (s *Service) OnPrefetch(fn func(u geo.RegionID, level int, b *Body)) { s.onPrefetch = fn }

// InFlight calls fn for every message the service has accepted and not yet
// resolved — each message riding a live frame, whether the frame is open, on
// the wire or held, and each client broadcast not yet arrived — with the
// region and level it is addressed to. It walks every frame and envelope
// ever allocated, so it is for checkers, not for the message path. Call it
// between kernel events: inside a frame's delivery, the messages already
// handed to their handlers are still listed. d is valid for the call.
func (s *Service) InFlight(fn func(u geo.RegionID, level int, d *Delivery)) {
	for _, f := range s.frames {
		if !f.live {
			continue
		}
		for _, seg := range f.segs {
			for i := range seg {
				d := s.unpack(&seg[i])
				fn(f.dst, int(seg[i].level), d)
				s.unhold(d)
			}
		}
	}
	for _, env := range s.envelopes {
		if env.live {
			fn(env.target, 0, &env.del)
		}
	}
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
	k, err := s.InternKind(kind)
	if err != nil {
		return err
	}
	return s.ClusterToClusterIndexed(s.h.Head(from), from, to, k, &Body{Payload: payload})
}

// ClusterToClusterIndexed sends from cluster from to cluster to, with an
// explicit sending region and a typed body, and the kind given by its index
// in the kind table (InternKind): senders resolve their alphabet once
// instead of naming the kind on every send. The body is copied into the
// frame, so the service keeps no pointer to it once the call returns. Under
// head replication, a backup replica of cluster from sends from its own
// (alternate-head) region rather than the primary head. An error means the
// message was refused — an index the table does not hold, an invalid route
// or a dead sender — and nothing was recorded or sent. Otherwise every copy
// (Copies(to) of them) is accepted and resolves exactly once, at its
// VSAHandler or at the OnDrop consumer; a copy with no live route out of the
// sender's region resolves before this call returns.
func (s *Service) ClusterToClusterIndexed(srcRegion geo.RegionID, from, to hier.ClusterID, kind KindIndex, body *Body) error {
	pk, err := s.kindAt(kind)
	if err != nil {
		return err
	}
	if !from.Valid() || !to.Valid() {
		return fmt.Errorf("cgcast: invalid route %v -> %v", from, to)
	}
	if !s.layer.Alive(srcRegion) {
		return fmt.Errorf("cgcast: source VSA %v not alive", srcRegion)
	}
	targets := [2]geo.RegionID{s.h.Head(to)}
	n := 1
	if s.replicate {
		if alt := s.h.AltHead(to); alt != geo.NoRegion {
			targets[1] = alt
			n = 2
		}
	}
	level := uint8(s.h.Level(to))
	due := s.k.Now() + s.ScheduleDelay(from, to)
	for _, dstRegion := range targets[:n] {
		hops := max(s.h.Graph().Distance(srcRegion, dstRegion), 0)
		pk.kind.Message(hops)
		var f *frame
		if s.batch {
			f = s.enqueue(srcRegion, dstRegion, due)
		} else {
			f = s.take(srcRegion, dstRegion, due)
		}
		// Field by field, in place: an entry literal would be built on the
		// stack and copied with wide loads, and a wide load of the sender's
		// narrow stores waits until every older store has reached the cache.
		e := f.push()
		e.from, e.fromRegion, e.kind, e.level = from, int32(srcRegion), kind, level
		e.body.Obj, e.body.Arg, e.body.Payload = body.Obj, body.Arg, body.Payload
		if !s.batch {
			f.send(hops)
		}
	}
	return nil
}

// InternKind returns kind's index in the kind table, adding the kind — and
// interning its "proto/" ledger kind, which records nothing — the first time
// it is seen. The table holds at most 256 kinds, the range of a KindIndex:
// past that, a new kind is refused with an error and nothing changes.
func (s *Service) InternKind(kind string) (KindIndex, error) {
	for i := range s.kinds {
		if s.kinds[i].name == kind {
			return KindIndex(i), nil
		}
	}
	if len(s.kinds) == maxKinds {
		return 0, fmt.Errorf("cgcast: kind table full (%d kinds), kind %q refused", maxKinds, kind)
	}
	s.kinds = append(s.kinds, protoKind{name: kind, kind: s.ledger.Kind("proto/" + kind)})
	return KindIndex(len(s.kinds) - 1), nil
}

// kindAt returns the kind table's entry at index k; an index the table does
// not hold is refused.
func (s *Service) kindAt(k KindIndex) (protoKind, error) {
	if int(k) >= len(s.kinds) {
		return protoKind{}, fmt.Errorf("cgcast: kind index %d not in the kind table", k)
	}
	return s.kinds[k], nil
}

// take returns a live, empty frame for the given edge and due time.
func (s *Service) take(src, dst geo.RegionID, due sim.Time) *frame {
	var f *frame
	if n := len(s.free); n > 0 {
		f, s.free = s.free[n-1], s.free[:n-1]
	} else {
		f = &frame{s: s}
		f.flushFn, f.deliverFn = f.flush, f.deliver
		s.frames = append(s.frames, f)
	}
	f.src, f.dst, f.due, f.live = src, dst, due, true
	return f
}

// release returns a resolved frame to the free list, cleared so the pool
// pins no payload. The frame keeps its first segment, which every use
// fills first, and gives the others back to their size classes.
func (s *Service) release(f *frame) {
	if !f.live {
		panic("cgcast: frame released twice")
	}
	f.live = false
	for j, seg := range f.segs {
		clear(seg)
		if j > 0 {
			s.segs[s.first+j] = append(s.segs[s.first+j], seg[:0])
		}
	}
	if len(f.segs) > 0 {
		clear(f.segs[1:])
		f.segs = f.segs[:1]
		f.segs[0] = f.segs[0][:0]
	}
	f.n = 0
	s.free = append(s.free, f)
}

// push extends the frame by one entry and returns it, for the sender to
// fill. When the last segment is full, the frame takes a segment of the
// next class, twice its size, so a frame that outgrows its first segment
// holds fewer than twice the slots it fills, and no entry is ever copied.
func (f *frame) push() *entry {
	j := len(f.segs) - 1
	if j < 0 || len(f.segs[j]) == cap(f.segs[j]) {
		j++
		f.segs = append(f.segs, f.s.takeSeg(f.s.first+j))
	}
	seg := f.segs[j]
	f.segs[j] = seg[:len(seg)+1]
	f.n++
	return &f.segs[j][len(seg)]
}

// takeSeg returns an empty segment of class j, from the pool if it holds
// one.
func (s *Service) takeSeg(j int) []entry {
	for j >= len(s.segs) {
		s.segs = append(s.segs, nil)
	}
	free := s.segs[j]
	if n := len(free); n > 0 {
		s.segs[j] = free[:n-1]
		return free[n-1]
	}
	return make([]entry, 0, 1<<j)
}

// enqueue returns the (src, dst, due) frame under construction, opening the
// frame — and scheduling its end-of-instant flush — if no message has taken
// the bucket yet; the caller pushes its message onto it. Kernel events at
// one timestamp run in schedule order, so every same-instant send for this
// edge and round enqueued before the flush rides the same frame; a send
// arriving after the flush (possible when a delivery handler itself sends
// at the same instant) deterministically opens a second frame.
func (s *Service) enqueue(srcRegion, dstRegion geo.RegionID, due sim.Time) *frame {
	open := s.open[srcRegion]
	for i := range open {
		if open[i].dst == dstRegion && open[i].due == due {
			return open[i].f
		}
	}
	f := s.take(srcRegion, dstRegion, due)
	s.open[srcRegion] = append(open, openFrame{dst: dstRegion, due: due, f: f})
	s.k.At(s.k.Now(), f.flushFn)
	return f
}

// flush is the end-of-instant event of a batched frame: close the bucket
// and put the frame on the wire.
func (f *frame) flush() {
	s := f.s
	f.mustBeLive()
	open := s.open[f.src]
	for i := range open {
		if open[i].f == f {
			last := len(open) - 1
			open[i] = open[last]
			open[last] = openFrame{}
			s.open[f.src] = open[:last]
			break
		}
	}
	f.send(max(s.h.Graph().Distance(f.src, f.dst), 0))
}

// send accounts the frame and hands it to the geocast substrate.
func (f *frame) send(hops int) {
	s := f.s
	s.frameKind.Message(hops)
	if err := s.gc.Route(f.src, f.dst, f); err != nil {
		// Only a batched frame gets here (an unbatched send checked its
		// sender a moment ago): the sending VSA died between enqueue and
		// flush, at the same instant; the whole frame dies unsent, and so
		// does every message riding it.
		f.dropAll(metrics.DropDeadVSA)
	}
}

// Arrived implements geocast.Receiver: the frame is now held in dst's VSA
// memory until the scheduled time; it dies with the VSA. The frame resolves
// to exactly one FrameKind delivery or drop: delivered when the holding
// VSA's memory survives until the due time, dropped when the substrate loses
// it or the holder fails/restarts first. Each message riding the frame then
// resolves its own "proto/" kind.
func (f *frame) Arrived() {
	s := f.s
	f.mustBeLive()
	f.inc = s.layer.Incarnation(f.dst)
	hold := f.due - s.k.Now()
	if hold < 0 {
		hold = 0
	}
	s.k.At(sim.Add(s.k.Now(), hold), f.deliverFn)
}

// Dropped implements geocast.Receiver: the frame died in the geocast
// substrate; attribute it and every message riding it so each per-kind send
// resolves to a delivery or a named drop.
func (f *frame) Dropped(cause metrics.DropCause) {
	f.mustBeLive()
	f.dropAll(cause)
}

// deliver is the hold event at the due time.
func (f *frame) deliver() {
	s := f.s
	f.mustBeLive()
	if s.layer.Incarnation(f.dst) != f.inc {
		// The holding VSA failed or restarted before the scheduled delivery
		// time; the held frame dies with its memory.
		f.dropAll(metrics.DropVSAReset)
		return
	}
	s.frameKind.Delivery()
	if s.onPrefetch != nil && f.n > 1 {
		for _, seg := range f.segs {
			for i := range seg {
				s.onPrefetch(f.dst, int(seg[i].level), &seg[i].body)
			}
		}
	}
	for _, seg := range f.segs {
		for i := range seg {
			e := &seg[i]
			d := s.unpack(e)
			ok := s.layer.DeliverToVSA(f.dst, int(e.level), d)
			s.unhold(d)
			if !ok {
				s.drop(f.dst, e, metrics.DropDeadVSA)
				continue
			}
			s.kinds[e.kind].kind.Delivery()
		}
	}
	s.release(f)
}

// dropAll resolves the frame and every message riding it as dropped.
func (f *frame) dropAll(cause metrics.DropCause) {
	s := f.s
	s.frameKind.Drop(cause)
	for _, seg := range f.segs {
		for i := range seg {
			s.drop(f.dst, &seg[i], cause)
		}
	}
	s.release(f)
}

// mustBeLive panics when a kernel event or the substrate reaches a frame
// that was already released — a lifetime bug, never a run-time condition.
func (f *frame) mustBeLive() {
	if !f.live {
		panic("cgcast: released frame is still referenced")
	}
}

// drop resolves one message addressed to region u as dropped.
func (s *Service) drop(u geo.RegionID, e *entry, cause metrics.DropCause) {
	s.kinds[e.kind].kind.Drop(cause)
	if s.onDrop != nil {
		d := s.unpack(e)
		s.onDrop(u, int(e.level), d)
		s.unhold(d)
	}
}

// unpack writes a frame entry out as the Delivery the service holds at the
// current call depth and enters that depth; unhold(d) leaves it once the
// handler or drop consumer handed d has returned.
func (s *Service) unpack(e *entry) *Delivery {
	if s.depth == len(s.held) {
		s.held = append(s.held, new(Delivery))
	}
	d := s.held[s.depth]
	s.depth++
	// Field by field: a Delivery literal would be built on the stack and
	// copied, and that copy's wide loads wait on the literal's narrow stores.
	d.Kind = s.kinds[e.kind].name
	d.From = e.from
	d.FromRegion = geo.RegionID(e.fromRegion)
	d.Body = e.body
	return d
}

// unhold leaves the call depth unpack entered for d, and drops d's payload
// so the service pins nothing between messages.
func (s *Service) unhold(d *Delivery) {
	d.Payload = nil
	s.depth--
}

// ClientToCluster sends from a client to a level-0 cluster in its own or a
// neighboring region, delivered after δ (schedule case e).
func (s *Service) ClientToCluster(from vsa.ClientID, to hier.ClusterID, kind string, payload any) error {
	k, err := s.InternKind(kind)
	if err != nil {
		return err
	}
	return s.ClientToClusterIndexed(from, to, k, Body{Payload: payload})
}

// ClientToClusterIndexed sends a typed body from a client to a level-0
// cluster in its own or a neighboring region, the kind given by its index
// in the kind table (InternKind). An error means the message was refused —
// an index the table does not hold, a cluster above level 0 or out of
// range, or a dead client — and nothing was recorded or sent. Otherwise the
// message is accepted and resolves exactly once, at the cluster's
// VSAHandler or at the OnDrop consumer.
func (s *Service) ClientToClusterIndexed(from vsa.ClientID, to hier.ClusterID, kind KindIndex, body Body) error {
	pk, err := s.kindAt(kind)
	if err != nil {
		return err
	}
	if s.h.Level(to) != 0 {
		return fmt.Errorf("cgcast: clients may only address level-0 clusters, got level %d", s.h.Level(to))
	}
	srcRegion := s.layer.ClientRegion(from)
	if srcRegion == geo.NoRegion {
		return fmt.Errorf("cgcast: client %v not alive", from)
	}
	dstRegion := s.h.Head(to)
	at, inc, err := s.vb.SendClient(from, dstRegion)
	if err != nil {
		return err
	}
	pk.kind.Message(max(s.h.Graph().Distance(srcRegion, dstRegion), 0))
	var env *clientEnv
	if n := len(s.envs); n > 0 {
		env, s.envs = s.envs[n-1], s.envs[:n-1]
	} else {
		env = &clientEnv{s: s}
		env.arriveFn = env.arrive
		s.envelopes = append(s.envelopes, env)
	}
	env.del = Delivery{Kind: pk.name, From: hier.NoCluster, FromRegion: srcRegion, Body: body}
	env.target, env.inc, env.live = dstRegion, inc, true
	s.k.At(at, env.arriveFn)
	return nil
}

// arrive is a client broadcast's arrival event: V-bcast delivers the
// message or accounts its drop, a drop goes on to the drop consumer, and
// the envelope is released once the handler or the consumer has returned.
func (env *clientEnv) arrive() {
	s := env.s
	if !env.live {
		panic("cgcast: released client envelope is still referenced")
	}
	if !s.vb.ArriveClient(env.target, env.inc, 0, &env.del) && s.onDrop != nil {
		s.onDrop(env.target, 0, &env.del)
	}
	s.releaseEnv(env)
}

// releaseEnv returns a resolved client envelope to the free list. Its
// message is cleared so the list pins no payload.
func (s *Service) releaseEnv(env *clientEnv) {
	if !env.live {
		panic("cgcast: client envelope released twice")
	}
	env.live = false
	env.del = Delivery{}
	s.envs = append(s.envs, env)
}

// ClusterToClientsIndexed broadcasts from a level-0 cluster process to all
// clients in its own and neighboring regions, delivered after δ+e
// (schedule case d), the kind given by its index in the kind table
// (InternKind). This carries the found output of §V to the clients that
// answer it. An error means the broadcast was refused — an index the table
// does not hold, a cluster above level 0 or a dead head — and nothing was
// recorded.
func (s *Service) ClusterToClientsIndexed(from hier.ClusterID, kind KindIndex, body Body) error {
	pk, err := s.kindAt(kind)
	if err != nil {
		return err
	}
	if s.h.Level(from) != 0 {
		return fmt.Errorf("cgcast: only level-0 clusters broadcast to clients, got level %d", s.h.Level(from))
	}
	u := s.h.Head(from)
	s.targets = append(append(s.targets[:0], u), s.layer.Tiling().Neighbors(u)...)
	del := &Delivery{Kind: pk.name, From: from, FromRegion: u, Body: body}
	if err := s.vb.VSAToClients(u, s.targets, del); err != nil {
		return err
	}
	pk.kind.Message(len(s.targets) - 1)
	return nil
}
