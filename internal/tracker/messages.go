// Package tracker implements VINESTALK's Tracker automata (paper Fig. 2),
// the client algorithm of §IV-A/§V, and the wiring of one Tracker_{u,l}
// subautomaton per cluster onto the VSA layer. The move path (grow/shrink
// with lateral links and secondary pointers) follows §IV and the find path
// (search and trace phases) follows §V; the transcription keeps the
// figure's guards and effects action by action.
package tracker

import (
	"vinestalk/internal/cgcast"
	"vinestalk/internal/geo"
)

// Protocol message kinds, exactly the alphabet of Fig. 2.
const (
	// KindGrow extends the tracking path toward the object's new location.
	KindGrow = "grow"
	// KindGrowNbr tells neighbors the sender joined the path via a lateral
	// link (they set nbrptdown).
	KindGrowNbr = "growNbr"
	// KindGrowPar tells neighbors the sender joined the path via its
	// hierarchy parent (they set nbrptup).
	KindGrowPar = "growPar"
	// KindShrink removes a deserted branch of the path.
	KindShrink = "shrink"
	// KindShrinkUpd tells neighbors the sender left the path (they clear
	// secondary pointers to it).
	KindShrinkUpd = "shrinkUpd"
	// KindFind carries a find operation along the search/trace phases.
	KindFind = "find"
	// KindFindQuery asks neighbors whether they are on the path or hold a
	// secondary pointer to it.
	KindFindQuery = "findQuery"
	// KindFindAck answers a findQuery with a pointer toward the path.
	KindFindAck = "findAck"
	// KindFound is broadcast to clients at the object's region when a find
	// completes its trace.
	KindFound = "found"
	// KindRefresh is the §VII extension heartbeat that renews path leases
	// and heals breaks after VSA failures. It is inert unless the network
	// is built with a heartbeat configuration.
	KindRefresh = "refresh"
)

// kindCode is a message kind as a small integer: what a process's send
// carries instead of the kind's name. The alphabet above is closed;
// kindUnknown names no kind.
type kindCode uint8

const (
	kindUnknown kindCode = iota
	kindGrow
	kindGrowNbr
	kindGrowPar
	kindShrink
	kindShrinkUpd
	kindFind
	kindFindQuery
	kindFindAck
	kindFound
	kindRefresh
)

var kindNames = [...]string{
	kindUnknown:   "",
	kindGrow:      KindGrow,
	kindGrowNbr:   KindGrowNbr,
	kindGrowPar:   KindGrowPar,
	kindShrink:    KindShrink,
	kindShrinkUpd: KindShrinkUpd,
	kindFind:      KindFind,
	kindFindQuery: KindFindQuery,
	kindFindAck:   KindFindAck,
	kindFound:     KindFound,
	kindRefresh:   KindRefresh,
}

// String returns the kind's name in the Fig. 2 alphabet.
func (c kindCode) String() string { return kindNames[c] }

// moveFamily reports whether a message of the named kind belongs to the
// move side of Fig. 2 (grow, shrink and their announcements): the messages
// whose absence from the channels MoveQuiescent waits for.
func moveFamily(kind string) bool {
	switch kind {
	case KindGrow, KindGrowNbr, KindGrowPar, KindShrink, KindShrinkUpd:
		return true
	}
	return false
}

// ObjectID identifies a tracked mobile object. The paper tracks one
// evader; the §VII extension tracks several, each with its own
// independent tracking structure multiplexed over the same processes.
type ObjectID int32

// DefaultObject is the object id used by the single-evader API.
const DefaultObject ObjectID = 0

// A protocol message's body is a cgcast.Body, which travels by value inside
// the C-gcast frame: Obj is the object the message concerns, Arg the pointer
// a findAck answers with or a refresh's hop count, and Payload the finds of
// a find or found, as a *[]FindPayload on every host. A pointer is what the
// networked host needs to decode a frame's finds into a slice it keeps per
// node and hand them on without boxing a slice header per frame; findsBody,
// which a process sends through, boxes its slice behind a fresh pointer,
// just as boxing the slice itself did. So findsOf has one reading. Whoever
// receives a body reads its finds for the call and copies what it keeps.

// bodyFor is the body of a kind that says nothing beyond its object.
func bodyFor(obj ObjectID) cgcast.Body { return cgcast.Body{Obj: int32(obj)} }

// findsBody is the body of a find or found carrying the given operations.
func findsBody(obj ObjectID, ps []FindPayload) cgcast.Body {
	return cgcast.Body{Obj: int32(obj), Payload: findsPayload(ps)}
}

// findsPayload boxes the operations a find or found body carries as the
// body's Payload.
func findsPayload(ps []FindPayload) any { return &ps }

// findsOf returns the operations a find or found body carries.
func findsOf(b *cgcast.Body) []FindPayload {
	if ps, ok := b.Payload.(*[]FindPayload); ok {
		return *ps
	}
	return nil
}

// FindID identifies a find operation. IDs are instrumentation only — the
// paper's find messages are anonymous — and exist so the harness can match
// found outputs to the finds that caused them.
type FindID int64

// FindPayload travels inside find, findQuery-triggered forwards, and found
// messages.
type FindPayload struct {
	// ID matches the found output back to the find input.
	ID FindID
	// Origin is the region where the find input occurred.
	Origin geo.RegionID
}

// FindResult reports a completed find to the harness.
type FindResult struct {
	// ID of the find operation.
	ID FindID
	// Object is the tracked object the find concerned.
	Object ObjectID
	// Origin region of the find input.
	Origin geo.RegionID
	// FoundAt is the region where the found output occurred. The tracking
	// service spec requires this to host the evader.
	FoundAt geo.RegionID
}
