package nethost

import (
	"fmt"
	"sync/atomic"

	"vinestalk/internal/geo"
)

// Transport moves opaque frames between regions. Implementations deliver
// frames to the sink registered via Start; delivery order between distinct
// sends is unspecified (the service's hold-until-due layer restores the
// protocol's timing discipline).
type Transport interface {
	// Start registers the receive sink and begins accepting frames. The
	// sink may be called from any goroutine, including inline from Send.
	Start(sink func(frame []byte)) error
	// Send transmits one frame toward region to. An error means the frame
	// was not handed to the destination (the caller records a drop).
	Send(to geo.RegionID, frame []byte) error
	// Close stops the transport; Send after Close errors.
	Close() error
}

// ChanTransport is the in-process transport: Send hands the frame to the
// sink inline. That is safe with Service.Receive, which only records the
// frame and schedules its due-time delivery — it never blocks on node
// mailboxes from the transport path. Send reads the sink through an atomic
// pointer, so concurrent senders share no lock.
type ChanTransport struct {
	sink   atomic.Pointer[func([]byte)]
	closed atomic.Bool
}

// NewChanTransport returns an in-process transport.
func NewChanTransport() *ChanTransport { return &ChanTransport{} }

// Start implements Transport.
func (t *ChanTransport) Start(sink func(frame []byte)) error {
	if t.closed.Load() {
		return fmt.Errorf("nethost: transport closed")
	}
	t.sink.Store(&sink)
	return nil
}

// Send implements Transport: the frame reaches the sink inline.
func (t *ChanTransport) Send(to geo.RegionID, frame []byte) error {
	if t.closed.Load() {
		return fmt.Errorf("nethost: transport closed")
	}
	sink := t.sink.Load()
	if sink == nil {
		return fmt.Errorf("nethost: transport not started")
	}
	(*sink)(frame)
	return nil
}

// Close implements Transport.
func (t *ChanTransport) Close() error {
	t.closed.Store(true)
	t.sink.Store(nil)
	return nil
}
