// Package vbcast implements V-bcast, the reliable local broadcast service
// of the VSA layer (paper §II-C "Preliminaries"): communication between
// clients and VSAs in the same or neighboring regions with message delay δ,
// where VSA-originated outputs may additionally lag by up to the emulation
// delay e.
//
// Substitution note: on the paper's testbed, δ is the maximum delay of the
// physical nodes' radio broadcast and e the worst-case lag of the VSA
// emulation. Here both are simulation parameters; by default the service
// delivers at exactly δ (client origin) or δ+e (VSA origin), the worst case
// the analysis assumes. A DelayModel (internal/chaos) may instead sample
// per-message delays anywhere in [0,δ] (plus output lag in [0,e]), subject
// to the TOBcast ordering constraint below.
//
// Ordering note: the paper models local broadcast as TOBcast — messages are
// delivered in send-time order. Independent per-message jitter could violate
// that (a later send overtaking an earlier one), which is a schedule the
// analysis excludes, not an adversarial one it quantifies over. The service
// therefore clamps sampled arrival times to be non-decreasing per
// destination region; the clamped delay provably stays within the [0,δ]
// (resp. [0,δ+e]) envelope because the earlier message's arrival is itself
// within its own envelope, which ends no later than this send's.
package vbcast

import (
	"fmt"

	"vinestalk/internal/geo"
	"vinestalk/internal/metrics"
	"vinestalk/internal/sim"
	"vinestalk/internal/vsa"
)

// DelayModel supplies per-message delays for adversarial schedules. Both
// methods must be deterministic functions of the model's own state (seeded
// RNG streams) so the simulation stays reproducible.
type DelayModel interface {
	// BroadcastDelay returns this message's physical broadcast delay; it
	// must lie in [0, delta].
	BroadcastDelay(from, to geo.RegionID, delta sim.Time) sim.Time
	// EmulationLag returns the sending VSA's output lag for this message;
	// it must lie in [0, e].
	EmulationLag(u geo.RegionID, e sim.Time) sim.Time
}

// Service is the local broadcast service. All sends are asynchronous:
// delivery happens via the VSA layer after the configured delay, and is
// dropped if the destination has failed (or restarted) in the meantime.
type Service struct {
	k     *sim.Kernel
	layer *vsa.Layer
	delta sim.Time
	e     sim.Time
	model DelayModel
	// Ledger handles of the three transport kinds, resolved once; with a nil
	// ledger they are zero handles that record nothing.
	kindClient    metrics.Kind
	kindVSAClient metrics.Kind
	kindHop       metrics.Kind
	// lastArrival tracks, per delivery channel (destination region ×
	// message class), the latest arrival time already scheduled there;
	// sampled arrivals are clamped to it so delivery respects TOBcast send
	// order (see package comment). Clamping within one channel is always
	// in-envelope because every message of a channel shares the same delay
	// bound. Each entry remembers the destination's incarnation at the time
	// it was written: TOBcast order is a per-process guarantee, so a clamp
	// from a dead incarnation must not delay the restarted VSA's fresh
	// channel (messages to the old incarnation are dropped anyway).
	lastArrival map[channel]arrival
	// casts holds the VSA→clients arrival records nothing is using.
	casts []*clientCast
}

// clientCast is one target region's share of a VSA→clients broadcast, from
// VSAToClients to its arrival event. It is the callback of that event, so a
// target costs no closure; the thunk is bound when the record is first
// allocated, and the record goes back to the free list when its event fires.
type clientCast struct {
	s      *Service
	tgt    geo.RegionID
	msg    any
	live   bool
	arrive func() // c.deliver, bound once
}

// arrival is one channel's clamp state: the latest scheduled arrival and
// the destination incarnation it was scheduled under.
type arrival struct {
	at  sim.Time
	inc uint64
}

// channel identifies one TOBcast ordering domain: messages of the same
// class bound for the same region must arrive in send order.
type channel struct {
	class  uint8
	region geo.RegionID
}

const (
	chanClient    uint8 = iota // client → VSA subautomaton
	chanVSAClient              // VSA → clients of a region
	chanHop                    // VSA → VSA relay (geocast)
)

// New creates the service. delta is the physical broadcast delay δ and e
// the VSA emulation output lag; ledger may be nil to disable transport
// accounting.
func New(k *sim.Kernel, layer *vsa.Layer, delta, e sim.Time, ledger *metrics.Ledger) *Service {
	return &Service{
		k: k, layer: layer, delta: delta, e: e,
		kindClient:    ledger.Kind("transport/client"),
		kindVSAClient: ledger.Kind("transport/vsa-client"),
		kindHop:       ledger.Kind("transport/hop"),
		lastArrival:   make(map[channel]arrival),
	}
}

// SetDelayModel installs a per-message delay model (nil restores the exact
// worst-case schedule). With a model installed every delivery time is
// sampled from the model and clamped to the TOBcast ordering constraint;
// without one the service is byte-for-byte the worst-case schedule, with no
// sampling and no clamp bookkeeping.
func (s *Service) SetDelayModel(m DelayModel) { s.model = m }

// Delta returns δ.
func (s *Service) Delta() sim.Time { return s.delta }

// E returns the emulation lag e.
func (s *Service) E() sim.Time { return s.e }

// SendClient is the send half of a client's broadcast to the VSA of target
// (the client's own region or a neighbor): it checks that the client is
// alive and the target in range, accounts the message under
// "transport/client", and returns the arrival time δ away together with the
// target's incarnation at send time. The caller schedules one kernel event
// at at and has it call ArriveClient with that incarnation, keeping the
// message in a record of its own instead of a closure per broadcast.
func (s *Service) SendClient(from vsa.ClientID, target geo.RegionID) (at sim.Time, inc uint64, err error) {
	src := s.layer.ClientRegion(from)
	if src == geo.NoRegion {
		return 0, 0, fmt.Errorf("vbcast: client %v not alive", from)
	}
	if target != src && !geo.AreNeighbors(s.layer.Tiling(), src, target) {
		return 0, 0, fmt.Errorf("vbcast: region %v not within broadcast range of %v", target, src)
	}
	s.kindClient.Message(hopCount(src, target))
	inc = s.layer.Incarnation(target)
	at = s.deliverAt(chanClient, target, s.broadcastDelay(src, target))
	return at, inc, nil
}

// ArriveClient is the arrival half of a client broadcast, run at the time
// SendClient returned: msg is delivered to the subautomaton at the given
// level unless the target VSA failed or restarted in flight, or is down at
// arrival. It reports whether msg was delivered; the message resolves under
// "transport/client" either way, and handing on a message that died is the
// caller's business.
func (s *Service) ArriveClient(target geo.RegionID, inc uint64, level int, msg any) bool {
	cause := metrics.DropIncarnation // VSA failed or restarted in flight
	if s.layer.Incarnation(target) == inc {
		if s.layer.DeliverToVSA(target, level, msg) {
			s.kindClient.Delivery()
			return true
		}
		cause = metrics.DropDeadVSA
	}
	s.kindClient.Drop(cause)
	return false
}

// VSAToClients broadcasts msg from region from's VSA to every alive client
// in the target regions (each must be from itself or a neighbor), delivered
// after δ+e. Clients that die in flight miss the message. It is one
// broadcast: the ledger charges one message whose hop-work is the sum of
// the per-target hop counts (the self region is 0 hops, each neighbor 1),
// so message count and hop-work stay distinct quantities. Each target's
// arrival is a recycled record; targets itself is not kept.
func (s *Service) VSAToClients(from geo.RegionID, targets []geo.RegionID, msg any) error {
	if !s.layer.Alive(from) {
		return fmt.Errorf("vbcast: VSA %v not alive", from)
	}
	work := 0
	for _, tgt := range targets {
		if tgt != from && !geo.AreNeighbors(s.layer.Tiling(), from, tgt) {
			return fmt.Errorf("vbcast: region %v not within broadcast range of %v", tgt, from)
		}
		work += hopCount(from, tgt)
	}
	s.kindVSAClient.Message(work)
	lag := s.emulationLag(from)
	for _, tgt := range targets {
		at := s.deliverAt(chanVSAClient, tgt, sim.Add(lag, s.broadcastDelay(from, tgt)))
		var c *clientCast
		if n := len(s.casts); n > 0 {
			c, s.casts = s.casts[n-1], s.casts[:n-1]
		} else {
			c = &clientCast{s: s}
			c.arrive = c.deliver
		}
		c.tgt, c.msg, c.live = tgt, msg, true
		s.k.At(at, c.arrive)
	}
	return nil
}

// deliver is a target region's arrival event. The record goes back to the
// free list first, so a client handler that broadcasts reuses it.
func (c *clientCast) deliver() {
	s, tgt, msg := c.s, c.tgt, c.msg
	if !c.live {
		panic("vbcast: arrival fired for a released broadcast record")
	}
	c.msg, c.live = nil, false
	s.casts = append(s.casts, c)
	for _, id := range s.layer.ClientsIn(tgt) {
		// ClientsIn lists only alive occupants, but a handler run by an
		// earlier delivery in this same loop may fail a client; count each
		// per-client attempt so chaos runs can see them.
		if s.layer.DeliverToClient(id, msg) {
			s.kindVSAClient.Delivery()
		} else {
			s.kindVSAClient.Drop(metrics.DropDeadClient)
		}
	}
}

// SendHop is the send half of a relay hop between neighboring regions' VSAs
// (or a self-delivery when from == to): it checks that the sender is alive
// and the destination in range, accounts the hop under "transport/hop", and
// returns the arrival time δ+e away together with the destination's
// incarnation at send time. The caller schedules one kernel event at at and
// has it call ArriveHop with that incarnation; routing layers (geocast) keep
// their per-message state in a record of their own instead of a closure per
// hop. The sender's emulation must merely survive the send itself: a VSA
// output is a physical broadcast performed by whichever node emulates the
// VSA at send time, and once that broadcast is in flight it is independent
// of the sender's fate — the sending VSA failing afterward does not retract
// it.
func (s *Service) SendHop(from, to geo.RegionID) (at sim.Time, inc uint64, err error) {
	if !s.layer.Alive(from) {
		return 0, 0, fmt.Errorf("vbcast: VSA %v not alive", from)
	}
	if to != from && !geo.AreNeighbors(s.layer.Tiling(), from, to) {
		return 0, 0, fmt.Errorf("vbcast: region %v not a neighbor of %v", to, from)
	}
	s.kindHop.Message(hopCount(from, to))
	inc = s.layer.Incarnation(to)
	at = s.deliverAt(chanHop, to, sim.Add(s.emulationLag(from), s.broadcastDelay(from, to)))
	return at, inc, nil
}

// ArriveHop is the arrival half of a relay hop, run at the time SendHop
// returned: the hop is delivered unless the destination VSA failed or
// restarted while it was in flight, in which case the cause is returned. The
// hop resolves under "transport/hop" either way; attributing the death of
// whatever the hop was carrying is the caller's business.
func (s *Service) ArriveHop(to geo.RegionID, inc uint64) (cause metrics.DropCause, ok bool) {
	if s.layer.Incarnation(to) != inc {
		s.kindHop.Drop(metrics.DropIncarnation)
		return metrics.DropIncarnation, false
	}
	if !s.layer.Alive(to) {
		s.kindHop.Drop(metrics.DropDeadVSA)
		return metrics.DropDeadVSA, false
	}
	s.kindHop.Delivery()
	return "", true
}

// VSAToVSA relays one hop and runs onArrive at arrival: SendHop, one kernel
// event, ArriveHop. A hop that dies in flight is accounted and onArrive does
// not run.
func (s *Service) VSAToVSA(from, to geo.RegionID, onArrive func()) error {
	at, inc, err := s.SendHop(from, to)
	if err != nil {
		return err
	}
	s.k.At(at, func() {
		if _, ok := s.ArriveHop(to, inc); ok {
			onArrive()
		}
	})
	return nil
}

// broadcastDelay returns this message's physical broadcast delay: exactly δ
// without a model, otherwise the model's sample clamped into [0,δ].
func (s *Service) broadcastDelay(from, to geo.RegionID) sim.Time {
	if s.model == nil {
		return s.delta
	}
	d := s.model.BroadcastDelay(from, to, s.delta)
	if d < 0 {
		d = 0
	}
	if d > s.delta {
		d = s.delta
	}
	return d
}

// emulationLag returns the sending VSA's output lag: exactly e without a
// model, otherwise the model's sample clamped into [0,e].
func (s *Service) emulationLag(u geo.RegionID) sim.Time {
	if s.model == nil {
		return s.e
	}
	d := s.model.EmulationLag(u, s.e)
	if d < 0 {
		d = 0
	}
	if d > s.e {
		d = s.e
	}
	return d
}

// deliverAt converts a sampled delay into an absolute arrival time,
// enforcing non-decreasing arrivals per channel when a model is installed
// (the default exact schedule is already send-ordered per channel because
// its delay is constant). The clamp only binds within one incarnation of
// the destination: TOBcast orders deliveries to a process, and a restart
// is a new process, so a clamp recorded under an older incarnation is
// stale and is discarded rather than over-delaying the fresh channel.
func (s *Service) deliverAt(class uint8, to geo.RegionID, delay sim.Time) sim.Time {
	at := sim.Add(s.k.Now(), delay)
	if s.model == nil {
		return at
	}
	key := channel{class: class, region: to}
	inc := s.layer.Incarnation(to)
	if last, ok := s.lastArrival[key]; ok && last.inc == inc && at < last.at {
		at = last.at
	}
	s.lastArrival[key] = arrival{at: at, inc: inc}
	return at
}

func hopCount(from, to geo.RegionID) int {
	if from == to {
		return 0
	}
	return 1
}
