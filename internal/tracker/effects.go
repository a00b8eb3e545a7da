package tracker

import (
	"vinestalk/internal/cgcast"
	"vinestalk/internal/hier"
	"vinestalk/internal/trace"
)

// The Tracker automaton communicates with its substrate exclusively
// through self-contained effect values handed to vsa.Host.Emit. The
// oracle host executes each effect synchronously at emission (preserving
// the exact call ordering of the pre-refactor direct-call design); the
// emulation host collects a step's effects as emul outputs and executes
// the leader's copy once at commit time.

// sendEffect transmits a protocol message from a cluster process.
type sendEffect struct {
	From   hier.ClusterID
	Backup bool // emitted by the alternate-head replica (§VII quorum)
	Obj    ObjectID
	To     hier.ClusterID
	Kind   string
	Body   any
}

// foundEffect broadcasts found from a level-0 cluster to the clients in
// its own and neighboring regions.
type foundEffect struct {
	From     hier.ClusterID
	Backup   bool
	Obj      ObjectID
	Payloads []FindPayload
}

// recvNoteEffect accounts a C-gcast delivery: the in-transit registry
// entry is consumed and the receipt traced.
type recvNoteEffect struct {
	To    hier.ClusterID
	Level int
	Del   cgcast.Delivery
}

// growNoteEffect counts a grow receipt for the Theorem 4.9 amortization
// instrumentation.
type growNoteEffect struct{ Level int }

// queryNoteEffect records an internal findquery action's level for the §VI
// instrumentation.
type queryNoteEffect struct{ Level int }

// execEffect performs one automaton effect against the live network
// substrate. Both hosts funnel through here — the oracle at emission, the
// emulator at leader commit.
func (n *Network) execEffect(eff any) {
	switch e := eff.(type) {
	case sendEffect:
		n.execSend(e)
	case foundEffect:
		n.execFound(e)
	case recvNoteEffect:
		n.execRecv(e)
	case growNoteEffect:
		n.noteGrow(e.Level)
	case queryNoteEffect:
		n.noteFindQuery(e.Level)
	}
}

// execSend transmits a protocol message between cluster processes, keeping
// the in-transit registry consistent for the checker. A backup replica's
// sends are suppressed while the primary head's VSA is alive (its state
// still evolves identically, since both replicas consume the same
// duplicated message stream).
func (n *Network) execSend(e sendEffect) {
	src := n.h.Head(e.From)
	if e.Backup {
		if n.cg.Layer().Alive(src) {
			return // primary speaks for the cluster
		}
		src = n.h.AltHead(e.From)
	}
	if err := n.cg.ClusterToClusterFrom(src, e.From, e.To, e.Kind, envelope{Obj: e.Obj, Body: e.Body}); err != nil {
		return
	}
	n.noteSent(e.Obj, e.Kind, e.From, e.To, n.cg.Copies(e.To))
	n.tr.Emit(trace.Event{
		At: n.k.Now(), Kind: "send", Op: n.opFor(e.Obj, e.Kind, e.Body), Obj: int32(e.Obj),
		Msg: e.Kind, From: int32(e.From), To: int32(e.To), Region: -1,
		Level: int16(n.h.Level(e.From)),
	})
}

// execFound broadcasts found from a level-0 cluster to clients in its own
// and neighboring regions.
func (n *Network) execFound(e foundEffect) {
	if e.Backup && n.cg.Layer().Alive(n.h.Head(e.From)) {
		return
	}
	_ = n.cg.ClusterToClients(e.From, KindFound, envelope{Obj: e.Obj, Body: e.Payloads})
}

// execRecv consumes the in-transit registry entry for a delivered message
// and traces the receipt.
func (n *Network) execRecv(e recvNoteEffect) {
	n.noteDelivered(e.Del, e.To)
	if n.tr.Enabled() {
		obj := int32(-1)
		var op uint64
		if env, ok := e.Del.Payload.(envelope); ok {
			obj = int32(env.Obj)
			op = n.opFor(env.Obj, e.Del.Kind, env.Body)
		}
		n.tr.Emit(trace.Event{
			At: n.k.Now(), Kind: "recv", Op: op, Obj: obj, Msg: e.Del.Kind,
			From: int32(e.Del.From), To: int32(e.To), Region: -1, Level: int16(e.Level),
		})
	}
}
