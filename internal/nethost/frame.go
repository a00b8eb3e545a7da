package nethost

import (
	"encoding/binary"
	"fmt"

	"vinestalk/internal/geo"
	"vinestalk/internal/sim"
)

// Frame layout (big-endian) — the service-level header around the app
// payload. The destination travels in the frame so TCP peers can route
// without trusting connection state; the due time is the absolute virtual
// time the destination must hold the frame until.
//
//	u32 dest | i64 due | u16 kindLen | kind bytes | payload
const maxFrameKind = 64

func encodeFrame(to geo.RegionID, due sim.Time, kind string, payload []byte) []byte {
	buf := make([]byte, 0, 4+8+2+len(kind)+len(payload))
	buf = binary.BigEndian.AppendUint32(buf, uint32(to))
	buf = binary.BigEndian.AppendUint64(buf, uint64(due))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(kind)))
	buf = append(buf, kind...)
	buf = append(buf, payload...)
	return buf
}

// parseFrame splits a frame into its header fields and payload; kind and
// payload alias frame. The input is untrusted (it may arrive over TCP): the
// kind length is bounded and checked against the remaining bytes, and a
// negative due is rejected.
func parseFrame(frame []byte) (to geo.RegionID, due sim.Time, kind, payload []byte, err error) {
	if len(frame) < 4+8+2 {
		return 0, 0, nil, nil, fmt.Errorf("nethost: frame of %d bytes is shorter than the header", len(frame))
	}
	to = geo.RegionID(int32(binary.BigEndian.Uint32(frame)))
	due = sim.Time(binary.BigEndian.Uint64(frame[4:]))
	kindLen := int(binary.BigEndian.Uint16(frame[12:]))
	if to < 0 || due < 0 {
		return 0, 0, nil, nil, fmt.Errorf("nethost: negative destination or due time")
	}
	if kindLen > maxFrameKind || 14+kindLen > len(frame) {
		return 0, 0, nil, nil, fmt.Errorf("nethost: frame kind length %d out of bounds", kindLen)
	}
	kind = frame[14 : 14+kindLen]
	payload = frame[14+kindLen:]
	return to, due, kind, payload, nil
}
