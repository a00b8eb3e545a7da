package tracker

import (
	"encoding/binary"
	"fmt"

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

// wirePayloadSize is one encoded FindPayload: i64 id + i32 origin.
const wirePayloadSize = 8 + 4

// EncodeClusterMsg serializes one protocol message for the networked
// host. It errors on a body that does not match the kind's schema (a
// programming error at the send site, not a wire condition).
func EncodeClusterMsg(from hier.ClusterID, fromRegion geo.RegionID, level int, obj ObjectID, kind string, body any) ([]byte, error) {
	buf := make([]byte, 0, 16+2*wirePayloadSize)
	buf = binary.BigEndian.AppendUint16(buf, wireVersion)
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(from)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(fromRegion)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(level))
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(obj)))
	switch kind {
	case KindFind, KindFound:
		ps, ok := body.([]FindPayload)
		if !ok {
			return nil, fmt.Errorf("tracker: %s body is %T, want []FindPayload", kind, body)
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(ps)))
		for _, p := range ps {
			buf = binary.BigEndian.AppendUint64(buf, uint64(p.ID))
			buf = binary.BigEndian.AppendUint32(buf, uint32(int32(p.Origin)))
		}
	case KindFindAck:
		c, ok := body.(hier.ClusterID)
		if !ok {
			return nil, fmt.Errorf("tracker: %s body is %T, want hier.ClusterID", kind, body)
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(int32(c)))
	case KindRefresh:
		hops, ok := body.(int)
		if !ok {
			return nil, fmt.Errorf("tracker: %s body is %T, want int", kind, body)
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(int32(hops)))
	case KindGrow, KindGrowNbr, KindGrowPar, KindShrink, KindShrinkUpd, KindFindQuery:
		if body != nil {
			return nil, fmt.Errorf("tracker: %s carries no body, got %T", kind, body)
		}
	default:
		return nil, fmt.Errorf("tracker: unknown message kind %q", kind)
	}
	return buf, nil
}

// DecodeClusterMsg parses one untrusted protocol message into the
// destination level and the cgcast.Delivery to hand the automaton. Every
// count is sanity-bounded against the remaining bytes before allocation,
// unknown kinds and trailing bytes are rejected, and a failed decode
// leaves nothing behind.
func DecodeClusterMsg(kind string, data []byte) (level int, del cgcast.Delivery, err error) {
	d := &decoder{buf: data}
	if v := d.u16(); d.err == nil && v != wireVersion {
		return 0, del, fmt.Errorf("tracker: unsupported wire version %d", v)
	}
	from := hier.ClusterID(int32(d.u32()))
	fromRegion := geo.RegionID(int32(d.u32()))
	level = int(d.u16())
	obj := ObjectID(int32(d.u32()))
	body := bodyFor(obj)
	switch kind {
	case KindFind, KindFound:
		count := int(d.u16())
		if d.err == nil && count > d.remaining()/wirePayloadSize {
			return 0, del, fmt.Errorf("tracker: %s payload count %d exceeds remaining %d bytes", kind, count, d.remaining())
		}
		ps := make([]FindPayload, 0, count)
		for i := 0; i < count; i++ {
			id := FindID(d.u64())
			origin := geo.RegionID(int32(d.u32()))
			ps = append(ps, FindPayload{ID: id, Origin: origin})
		}
		body.Payload = ps
	case KindFindAck, KindRefresh:
		body.Arg = int32(d.u32())
	case KindGrow, KindGrowNbr, KindGrowPar, KindShrink, KindShrinkUpd, KindFindQuery:
	default:
		return 0, del, fmt.Errorf("tracker: unknown message kind %q", kind)
	}
	if d.err != nil {
		return 0, del, d.err
	}
	if d.remaining() != 0 {
		return 0, del, fmt.Errorf("tracker: %d trailing bytes after %s message", d.remaining(), kind)
	}
	del = cgcast.Delivery{Kind: kind, From: from, FromRegion: fromRegion, Body: body}
	return level, del, nil
}
