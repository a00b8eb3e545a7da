package tracker

import (
	"encoding/binary"
	"fmt"
	"math"

	"vinestalk/internal/cgcast"
	"vinestalk/internal/geo"
	"vinestalk/internal/hier"
)

// Wire codec for protocol messages between networked regions. On the sim
// hosts a cluster message travels as an in-memory cgcast.Delivery; on the
// networked host it must survive real bytes, so each message is encoded
// with a version header and decoded with the same bounds discipline as
// the region codec — all input is untrusted.
//
// Layout (big-endian), after the frame-level kind:
//
//	u16 version(=1) | i32 from | i32 fromRegion | u16 level | i32 obj | body
//
// from is the sending cluster (-1 = NoCluster, a client message); level
// addresses the destination process. The body depends on the kind:
// find/found carry a count-prefixed payload list, findAck a cluster id,
// refresh a hop count, and the grow/shrink family plus findQuery nothing.
const wireVersion = 1

// wireHeaderSize is the message header: version, from, fromRegion, level
// and obj.
const wireHeaderSize = 2 + 4 + 4 + 2 + 4

// wirePayloadSize is one encoded FindPayload: i64 id + i32 origin.
const wirePayloadSize = 8 + 4

// msgSize is the length of the wire form of a message of the given kind
// with body b.
func msgSize(kind string, b *cgcast.Body) int {
	switch kind {
	case KindFind, KindFound:
		return wireHeaderSize + 2 + len(findsOf(b))*wirePayloadSize
	case KindFindAck, KindRefresh:
		return wireHeaderSize + 4
	}
	return wireHeaderSize
}

// AppendClusterMsg appends the wire form of one protocol message to buf and
// returns the extended buffer: the message of the given kind from cluster
// from (in region fromRegion) to the process at level, with body b — its
// object, the Arg of a findAck or refresh, the finds of a find or found.
// The networked host appends it behind the frame header, so a message is
// written once, into the frame's own buffer. It errors, leaving buf as it
// was, on an unknown kind or a find list too long for its count.
func AppendClusterMsg(buf []byte, from hier.ClusterID, fromRegion geo.RegionID, level int, kind string, b *cgcast.Body) ([]byte, error) {
	ps := findsOf(b)
	switch kind {
	case KindFind, KindFound:
		if len(ps) > math.MaxUint16 {
			return buf, fmt.Errorf("tracker: %s carries %d payloads, more than a count holds", kind, len(ps))
		}
	case KindFindAck, KindRefresh, KindGrow, KindGrowNbr, KindGrowPar, KindShrink, KindShrinkUpd, KindFindQuery:
	default:
		return buf, fmt.Errorf("tracker: unknown message kind %q", kind)
	}
	buf = binary.BigEndian.AppendUint16(buf, wireVersion)
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(from)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(fromRegion)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(level))
	buf = binary.BigEndian.AppendUint32(buf, uint32(b.Obj))
	switch kind {
	case KindFind, KindFound:
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(ps)))
		for _, p := range ps {
			buf = binary.BigEndian.AppendUint64(buf, uint64(p.ID))
			buf = binary.BigEndian.AppendUint32(buf, uint32(int32(p.Origin)))
		}
	case KindFindAck, KindRefresh:
		buf = binary.BigEndian.AppendUint32(buf, uint32(b.Arg))
	}
	return buf, nil
}

// EncodeClusterMsg serializes one protocol message into a buffer of its
// own, with the body in its schema's Go type: []FindPayload for find and
// found, hier.ClusterID for findAck, int for refresh, nil otherwise. It
// errors on a body that does not match the kind's schema (a programming
// error at the send site, not a wire condition).
func EncodeClusterMsg(from hier.ClusterID, fromRegion geo.RegionID, level int, obj ObjectID, kind string, body any) ([]byte, error) {
	b := bodyFor(obj)
	ok := true
	switch kind {
	case KindFind, KindFound:
		var ps []FindPayload
		ps, ok = body.([]FindPayload)
		b.Payload = &ps
	case KindFindAck:
		var c hier.ClusterID
		c, ok = body.(hier.ClusterID)
		b.Arg = int32(c)
	case KindRefresh:
		var hops int
		hops, ok = body.(int)
		b.Arg = int32(hops)
	default:
		ok = body == nil
	}
	if !ok {
		return nil, fmt.Errorf("tracker: %s body %T does not match the kind's schema", kind, body)
	}
	return AppendClusterMsg(make([]byte, 0, msgSize(kind, &b)), from, fromRegion, level, kind, &b)
}

// DecodeClusterMsg parses one untrusted protocol message into the
// destination level and a cgcast.Delivery of its own, as decodeClusterMsg
// does into the networked host's scratch.
func DecodeClusterMsg(kind string, data []byte) (level int, del cgcast.Delivery, err error) {
	finds := new([]FindPayload)
	level, err = decodeClusterMsg(kind, data, &del, finds)
	return level, del, err
}

// decodeClusterMsg parses one untrusted protocol message into *del and
// returns the destination level. A find's or found's payloads are decoded
// into *finds, reusing its array, and del.Payload points at finds; so a
// decode into scratch the caller keeps allocates nothing once the array
// has grown. Every count is sanity-bounded against the remaining bytes
// before it is used, unknown kinds and trailing bytes are rejected, and a
// failed decode leaves *del as it was (though *finds may hold part of a
// list).
func decodeClusterMsg(kind string, data []byte, del *cgcast.Delivery, finds *[]FindPayload) (level int, err error) {
	d := decoder{buf: data}
	if v := d.u16(); d.err == nil && v != wireVersion {
		return 0, fmt.Errorf("tracker: unsupported wire version %d", v)
	}
	from := hier.ClusterID(int32(d.u32()))
	fromRegion := geo.RegionID(int32(d.u32()))
	level = int(d.u16())
	body := bodyFor(ObjectID(int32(d.u32())))
	switch kind {
	case KindFind, KindFound:
		count := int(d.u16())
		if d.err == nil && count > d.remaining()/wirePayloadSize {
			return 0, fmt.Errorf("tracker: %s payload count %d exceeds remaining %d bytes", kind, count, d.remaining())
		}
		ps := (*finds)[:0]
		if cap(ps) < count {
			ps = make([]FindPayload, 0, count)
		}
		for i := 0; i < count; i++ {
			id := FindID(d.u64())
			origin := geo.RegionID(int32(d.u32()))
			ps = append(ps, FindPayload{ID: id, Origin: origin})
		}
		*finds = ps
		body.Payload = finds
	case KindFindAck, KindRefresh:
		body.Arg = int32(d.u32())
	case KindGrow, KindGrowNbr, KindGrowPar, KindShrink, KindShrinkUpd, KindFindQuery:
	default:
		return 0, fmt.Errorf("tracker: unknown message kind %q", kind)
	}
	if d.err != nil {
		return 0, d.err
	}
	if d.remaining() != 0 {
		return 0, fmt.Errorf("tracker: %d trailing bytes after %s message", d.remaining(), kind)
	}
	*del = cgcast.Delivery{Kind: kind, From: from, FromRegion: fromRegion, Body: body}
	return level, nil
}
