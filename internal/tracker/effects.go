package tracker

import (
	"vinestalk/internal/cgcast"
	"vinestalk/internal/geo"
	"vinestalk/internal/hier"
	"vinestalk/internal/sim"
	"vinestalk/internal/trace"
	"vinestalk/internal/vsa"
)

// The Tracker automaton communicates with its substrate exclusively
// through typed calls on its outlet, and every host is one:
//   - the oracle host executes each effect synchronously at emission
//     (preserving the exact call ordering of the pre-refactor direct-call
//     design, and boxing nothing per message);
//   - the emulated host logs a Step's effects as tagged values and executes
//     the leader's log once, at commit time;
//   - the networked host gives each node's automaton a netOutlet, which
//     turns sends and founds into wire frames.

// outlet is where a region's machine sends its effects; u is the region.
type outlet interface {
	// send transmits e, which is valid for the call only: the automaton
	// fills the next send into the same scratch, so an outlet that keeps a
	// send keeps a copy.
	send(u geo.RegionID, e *sendEffect)
	found(u geo.RegionID, e foundEffect)
	// recv accounts the delivery of d to cluster to's process; d is valid for
	// the call.
	recv(u geo.RegionID, to hier.ClusterID, level int, d *cgcast.Delivery)
	noteGrow(u geo.RegionID, level int)
	noteQuery(u geo.RegionID, level int)
	// timer mirrors a write of timer variable id to at (∞ clears it). ref is
	// the value the variable's deadline slot kept from the outlet's last
	// return for it while armed, and 0 when it was not armed; the return is
	// what the slot keeps if at is finite.
	timer(u geo.RegionID, id vsa.TimerID, at sim.Time, ref int32) int32
}

// sendEffect transmits a protocol message from a cluster process. Every
// send fills one field by field, in a scratch its automaton keeps, and
// hands the outlet a pointer to it. The oracle host copies the body into
// its frame entry (cgcast.ClusterToClusterIndexed), the networked host
// encodes it into a wire frame, and the emulated host, which keeps sends
// until commit, logs a copy. It is kept to 48 bytes (TestSendEffectFits),
// the size of a frame entry: the kind travels as its code, not its name.
type sendEffect struct {
	From   hier.ClusterID
	Backup bool // emitted by the alternate-head replica (§VII quorum)
	Kind   kindCode
	To     hier.ClusterID
	Body   cgcast.Body
}

// foundEffect broadcasts found from a level-0 cluster to the clients in
// its own and neighboring regions.
type foundEffect struct {
	From     hier.ClusterID
	Backup   bool
	Obj      ObjectID
	Payloads []FindPayload
}

// execSend transmits a protocol message between cluster processes, keeping
// the in-transit registry consistent for the checker. A backup replica's
// sends are suppressed while the primary head's VSA is alive (its state
// still evolves identically, since both replicas consume the same
// duplicated message stream).
func (n *Network) execSend(e *sendEffect) {
	src := n.h.Head(e.From)
	if e.Backup {
		if n.cg.Layer().Alive(src) {
			return // primary speaks for the cluster
		}
		src = n.h.AltHead(e.From)
	}
	// The send is noted first: a copy with no live route out of src resolves
	// — and is taken out of the registry — before the send returns.
	obj := ObjectID(e.Body.Obj)
	copies := n.cg.Copies(e.To)
	e.Body.Mark = n.noteSent(obj, e.Kind, e.From, e.To, copies)
	if err := n.cg.ClusterToClusterIndexed(src, e.From, e.To, n.cgKinds[e.Kind], &e.Body); err != nil {
		for ; copies > 0; copies-- {
			n.resolve(e.Body.Mark) // refused: nothing was sent
		}
		return
	}
	if n.tr.Enabled() {
		n.tr.Emit(trace.Event{
			At: n.k.Now(), Kind: "send", Op: n.opFor(obj, e.Kind.String(), &e.Body), Obj: e.Body.Obj,
			Msg: e.Kind.String(), From: int32(e.From), To: int32(e.To), Region: -1,
			Level: int16(n.h.Level(e.From)),
		})
	}
}

// execFound broadcasts found from a level-0 cluster to clients in its own
// and neighboring regions.
func (n *Network) execFound(e foundEffect) {
	if e.Backup && n.cg.Layer().Alive(n.h.Head(e.From)) {
		return
	}
	_ = n.cg.ClusterToClientsIndexed(e.From, n.cgKinds[kindFound], findsBody(e.Obj, e.Payloads))
}

// execRecv consumes the in-transit registry entry for a delivered message
// and traces the receipt.
func (n *Network) execRecv(to hier.ClusterID, level int, d *cgcast.Delivery) {
	n.resolve(d.Mark)
	if n.tr.Enabled() {
		n.tr.Emit(trace.Event{
			At: n.k.Now(), Kind: "recv", Op: n.opFor(ObjectID(d.Obj), d.Kind, &d.Body), Obj: d.Obj, Msg: d.Kind,
			From: int32(d.From), To: int32(to), Region: -1, Level: int16(level),
		})
	}
}
