// Package geocast implements the bounded-delay region-to-region message
// routing used beneath C-gcast. The paper builds this on the
// self-stabilizing DFS geocast of Dolev, Lahiani, Lynch & Nolte (SSS 2005,
// ref [10]); this reproduction substitutes shortest-path hop-by-hop routing
// over V-bcast, which preserves the property the analysis uses — delivery
// between regions at hop distance h costs h one-hop broadcasts and at most
// (δ+e)·h time — while re-routing around failed VSAs on the alive subgraph
// when possible (the self-stabilization behavior of [10], in simplified
// form).
package geocast

import (
	"fmt"

	"vinestalk/internal/geo"
	"vinestalk/internal/metrics"
	"vinestalk/internal/sim"
	"vinestalk/internal/vbcast"
	"vinestalk/internal/vsa"
)

// Service routes messages between arbitrary regions' VSAs.
type Service struct {
	k     *sim.Kernel
	layer *vsa.Layer
	graph *geo.Graph
	vb    *vbcast.Service
	kind  metrics.Kind // "transport/geocast"
	loss  func(cur, next geo.RegionID) bool

	// free holds the route records no message is using. A record is taken
	// per routed message and returned by whoever resolves the message, so
	// the list grows to the most messages ever in flight at once and a
	// steady-state hop allocates nothing. made counts the records ever
	// allocated: made - len(free) messages are in flight.
	free []*route
	made int

	// Failover-routing cache. When the static next hop toward a
	// destination is dead, the detour hop is a pure function of
	// (cur, to, alive set); the VSA layer's AliveEpoch counter names the
	// alive set, so each (cur, to) pair caches its detour hop together with
	// the epoch it was computed under and stays valid until any VSA fails
	// or restarts. Crash-regime runs (E7/E11) route every hop of every
	// message through here, and between consecutive fault events the
	// answers repeat exactly.
	//
	// The cache is an open-addressed table (linear probing, at most half
	// full) of the pairs that failed over in the current epoch — never n × n.
	// An entry stamped with an older epoch is a free slot, so an epoch change
	// empties the table without touching it. (A Go map cleared per epoch is
	// less code and costs 1.7× the lookup of the flat array this replaced.)
	n          int             // regions in the tiling
	cache      []failoverEntry // power-of-two length; nil until first failover
	cacheLive  int             // entries stamped cacheEpoch
	cacheEpoch uint64          // the aliveness epoch of the last lookup
	// BFS scratch, reused across searches so a cache miss allocates
	// nothing: seen stamps instead of a visited map (seenGen names the
	// current search), parent indices instead of a predecessor map, and a
	// reusable FIFO.
	prev    []int32
	seen    []uint32
	seenGen uint32
	fifo    []int32
}

// failoverEntry is one cached detour decision: the alive-subgraph next hop
// for the pair key = cur*n+to, valid while the layer's aliveness epoch equals
// epoch. The zero value never matches a real epoch (epochs start at 1).
type failoverEntry struct {
	epoch uint64
	key   int
	next  geo.RegionID
}

// New creates the routing service over the given local-broadcast transport.
func New(k *sim.Kernel, layer *vsa.Layer, graph *geo.Graph, vb *vbcast.Service, ledger *metrics.Ledger) *Service {
	return &Service{k: k, layer: layer, graph: graph, vb: vb,
		kind: ledger.Kind("transport/geocast"), n: layer.Tiling().NumRegions()}
}

// Graph exposes the shortest-path graph (shared with the hierarchy).
func (s *Service) Graph() *geo.Graph { return s.graph }

// SetLoss installs a per-hop loss predicate (nil disables loss). Before each
// forwarding hop from cur to next the predicate is consulted; returning true
// drops the message there, modeling loss the abstraction permits — a
// transfer caught by a VSA failure/restart during the stabilization regime
// of the underlying self-stabilizing geocast (ref [10]). Dropped hops charge
// no hop-work: the broadcast never happened.
func (s *Service) SetLoss(fn func(cur, next geo.RegionID) bool) { s.loss = fn }

// Receiver is told how a routed message resolved: exactly one of its two
// methods runs, once.
type Receiver interface {
	// Arrived runs when the message reaches a live VSA at its destination.
	Arrived()
	// Dropped runs at the point of death — no live route, injected loss, a
	// relay VSA failing, or the in-flight hop's destination failing or
	// restarting — after the drop is attributed in the ledger under
	// "transport/geocast".
	Dropped(cause metrics.DropCause)
}

// route is one routed message in flight: where it is, where the hop in
// flight lands, where it is going, and who to tell. It belongs either to the
// one kernel event that carries its current hop or to the call chain that is
// advancing it, and goes back to the free list the moment the message
// resolves — before the receiver runs, so a receiver that sends again reuses
// it.
type route struct {
	s             *Service
	cur, next, to geo.RegionID
	inc           uint64 // next's incarnation when the hop in flight was sent
	rcv           Receiver
	step          func() // r.arrive, bound once when the record is first allocated
}

// Route routes a message from region from's VSA toward region to's VSA and
// tells rcv how it resolved. The message travels hop-by-hop with per-hop
// delay δ+e; each hop prefers the precomputed shortest path and falls back
// to a path over currently-alive regions when the next hop's VSA is down.
// The message dies if no live route exists or a holding VSA dies mid-route
// (the paper's stabilizing geocast would eventually retransmit; VINESTALK's
// heartbeat extension recovers at the protocol layer instead). An error
// means nothing was sent and rcv will not be called.
func (s *Service) Route(from, to geo.RegionID, rcv Receiver) error {
	if !s.layer.Tiling().Contains(from) || !s.layer.Tiling().Contains(to) {
		return fmt.Errorf("geocast: route %v -> %v outside tiling", from, to)
	}
	if !s.layer.Alive(from) {
		return fmt.Errorf("geocast: source VSA %v not alive", from)
	}
	// Charge the message here but its hop-work per hop actually taken (in
	// relay): detours around dead VSAs cost their real length and messages
	// dropped mid-route cost only the hops they traveled, so the ledger
	// reflects work done rather than the static distance.
	s.kind.Message(0)
	var r *route
	if n := len(s.free); n > 0 {
		r, s.free = s.free[n-1], s.free[:n-1]
	} else {
		r = &route{s: s}
		r.step = r.arrive
		s.made++
	}
	r.cur, r.to, r.rcv = from, to, rcv
	s.relay(r)
	return nil
}

// funcReceiver adapts a bare arrival callback: drops are accounted and
// otherwise silent.
type funcReceiver func()

func (f funcReceiver) Arrived()                  { f() }
func (f funcReceiver) Dropped(metrics.DropCause) {}

// Send is Route for callers that only care about arrival: onArrive runs when
// the message reaches a live VSA at to, and a message that dies is dropped
// silently (but attributed in the ledger).
func (s *Service) Send(from, to geo.RegionID, onArrive func()) error {
	return s.Route(from, to, funcReceiver(onArrive))
}

// relay advances the message one hop from r.cur toward r.to: one kernel
// event per hop.
func (s *Service) relay(r *route) {
	if r.cur == r.to {
		s.kind.Delivery()
		s.release(r).Arrived()
		return
	}
	next := s.nextHop(r.cur, r.to)
	if next == geo.NoRegion {
		s.drop(r, metrics.DropNoRoute) // no live route
		return
	}
	if s.loss != nil && s.loss(r.cur, next) {
		// Injected loss; the hop never happens, so no work either.
		s.drop(r, metrics.DropLoss)
		return
	}
	at, inc, err := s.vb.SendHop(r.cur, next)
	if err != nil {
		// The current holder died between scheduling and sending; the
		// message is lost with it.
		s.drop(r, metrics.DropSenderDead)
		return
	}
	r.next, r.inc = next, inc
	s.k.At(at, r.step)
	s.kind.Work(1)
}

// arrive is the kernel event at the end of a hop.
func (r *route) arrive() {
	s := r.s
	if r.rcv == nil {
		panic("geocast: kernel event fired for a released route")
	}
	if cause, ok := s.vb.ArriveHop(r.next, r.inc); !ok {
		// The hop died in flight (destination failed or restarted); the
		// routed message dies with it. The hop itself is already attributed
		// under "transport/hop"; this attributes the routed message.
		s.drop(r, cause)
		return
	}
	r.cur = r.next
	s.relay(r)
}

// drop attributes the death of a routed message.
func (s *Service) drop(r *route, cause metrics.DropCause) {
	s.kind.Drop(cause)
	s.release(r).Dropped(cause)
}

// release returns a resolved message's record to the free list and hands
// back the receiver to notify.
func (s *Service) release(r *route) Receiver {
	rcv := r.rcv
	if rcv == nil {
		panic("geocast: route released twice")
	}
	r.rcv, r.to = nil, geo.NoRegion
	s.free = append(s.free, r)
	return rcv
}

// nextHop picks the next region toward to: the static shortest-path hop if
// its VSA is alive, otherwise the first hop of a shortest path through
// currently-alive regions (BFS), or NoRegion if none exists.
func (s *Service) nextHop(cur, to geo.RegionID) geo.RegionID {
	if nh := s.graph.NextHop(cur, to); nh != geo.NoRegion && (s.layer.Alive(nh) || nh == to) {
		return nh
	}
	return s.aliveNextHop(cur, to)
}

// aliveNextHop returns the first hop of a shortest path from cur to to over
// regions with alive VSAs (the endpoints are exempt from the aliveness
// requirement: cur holds the message, and liveness of to is checked at
// arrival). Results are cached per (cur, to) under the VSA layer's
// aliveness epoch, so within one epoch each pair runs its BFS at most once.
func (s *Service) aliveNextHop(cur, to geo.RegionID) geo.RegionID {
	ep := s.layer.AliveEpoch()
	if ep != s.cacheEpoch {
		s.cacheEpoch, s.cacheLive = ep, 0 // every entry went stale at once
	}
	key := int(cur)*s.n + int(to)
	if e := s.cacheSlot(s.cache, key); e != nil && e.epoch == ep {
		return e.next
	}
	if 2*(s.cacheLive+1) > len(s.cache) {
		grown := make([]failoverEntry, max(16, 2*len(s.cache)))
		for _, e := range s.cache {
			if e.epoch == ep {
				*s.cacheSlot(grown, e.key) = e
			}
		}
		s.cache = grown
	}
	next := s.aliveNextHopUncached(cur, to)
	*s.cacheSlot(s.cache, key) = failoverEntry{epoch: ep, key: key, next: next}
	s.cacheLive++
	return next
}

// cacheSlot returns key's slot in table: the current epoch's entry for key,
// or the free slot the probe sequence reaches first, where key would go. It
// returns nil only for the empty table; any other is at most half full, so
// the probe ends.
func (s *Service) cacheSlot(table []failoverEntry, key int) *failoverEntry {
	if len(table) == 0 {
		return nil
	}
	mask := len(table) - 1
	for i := int(uint64(key)*0x9E3779B97F4A7C15>>32) & mask; ; i = (i + 1) & mask {
		if e := &table[i]; e.epoch != s.cacheEpoch || e.key == key {
			return e
		}
	}
}

// aliveNextHopUncached is the BFS behind aliveNextHop, over the reusable
// scratch buffers (no per-search allocation). Neighbors are explored in the
// tiling's order and the FIFO preserves insertion order, so the hop found
// is identical to the original map-based search — routing, and therefore
// every experiment table, is unchanged by the caching.
func (s *Service) aliveNextHopUncached(cur, to geo.RegionID) geo.RegionID {
	t := s.layer.Tiling()
	if s.seen == nil {
		s.prev = make([]int32, s.n)
		s.seen = make([]uint32, s.n)
		s.fifo = make([]int32, 0, s.n)
	}
	s.seenGen++
	if s.seenGen == 0 { // stamp wrapped: invalidate all stale stamps
		clear(s.seen)
		s.seenGen = 1
	}
	gen := s.seenGen
	s.seen[cur] = gen
	s.prev[cur] = int32(cur)
	q := append(s.fifo[:0], int32(cur))
	for head := 0; head < len(q); head++ {
		u := geo.RegionID(q[head])
		for _, v := range t.Neighbors(u) {
			if s.seen[v] == gen {
				continue
			}
			if v != to && !s.layer.Alive(v) {
				continue
			}
			s.seen[v] = gen
			s.prev[v] = int32(u)
			if v == to {
				// Walk back to the first hop.
				for geo.RegionID(s.prev[v]) != cur {
					v = geo.RegionID(s.prev[v])
				}
				s.fifo = q
				return v
			}
			q = append(q, int32(v))
		}
	}
	s.fifo = q
	return geo.NoRegion
}
