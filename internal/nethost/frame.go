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

// frameHeaderLen is the header's length before the kind bytes.
const frameHeaderLen = 4 + 8 + 2

// NewFrame begins a frame to region to, due at due, of the given kind: a
// buffer holding the header, with room for size more bytes. The app
// appends its payload behind the header and hands the buffer to
// Node.SendFrame, so a frame's bytes are allocated once and never copied.
func NewFrame(to geo.RegionID, due sim.Time, kind string, size int) []byte {
	buf := make([]byte, 0, frameHeaderLen+len(kind)+size)
	buf = binary.BigEndian.AppendUint32(buf, uint32(to))
	buf = binary.BigEndian.AppendUint64(buf, uint64(due))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(kind)))
	return append(buf, kind...)
}

// parseFrame splits a frame into its header fields and payload; kind and
// payload alias frame, and payload is never nil. The input is untrusted (it
// may arrive over TCP): the kind length is bounded and checked against the
// remaining bytes, and a negative due is rejected.
func parseFrame(frame []byte) (to geo.RegionID, due sim.Time, kind, payload []byte, err error) {
	if len(frame) < frameHeaderLen {
		return 0, 0, nil, nil, fmt.Errorf("nethost: frame of %d bytes is shorter than the header", len(frame))
	}
	to = geo.RegionID(int32(binary.BigEndian.Uint32(frame)))
	due = sim.Time(binary.BigEndian.Uint64(frame[4:]))
	kindLen := int(binary.BigEndian.Uint16(frame[12:]))
	if to < 0 || due < 0 {
		return 0, 0, nil, nil, fmt.Errorf("nethost: negative destination or due time")
	}
	if kindLen > maxFrameKind || frameHeaderLen+kindLen > len(frame) {
		return 0, 0, nil, nil, fmt.Errorf("nethost: frame kind length %d out of bounds", kindLen)
	}
	kind = frame[frameHeaderLen : frameHeaderLen+kindLen]
	payload = frame[frameHeaderLen+kindLen:]
	return to, due, kind, payload, nil
}
