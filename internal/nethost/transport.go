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
//
// A frame changes hands once per hop and is never written after it is
// handed on. Send takes ownership of the frame it is given: the caller
// must not touch it again, and the transport may keep it or pass the very
// same bytes to the destination's sink (ChanTransport does; TCPTransport
// writes it out and keeps nothing). The sink owns each frame it is handed,
// so a transport must not reuse a buffer it has passed to the sink.
//
// On the receiving service the frame's payload is held in the queue until
// its due time. Then one of two things ends the service's use of it: the
// executor's call of App.DeliverFrame returns (the app copies what it
// keeps), or the frame dies without a delivery — at arrival, when the
// executor takes it for a dead node or an old incarnation or skips it for
// a node killed meanwhile, or in Stop.
// After that nothing of the service reads the frame; a receiver that
// recycles frames may reuse the buffer from that point.
type Transport interface {
	// Start registers the receive sink and begins accepting frames. The
	// sink may be called from any goroutine, including inline from Send.
	Start(sink func(frame []byte)) error
	// Send transmits one frame toward region to, taking ownership of it. An
	// error means the frame was not handed to the destination (the caller
	// records a drop).
	Send(to geo.RegionID, frame []byte) error
	// Close stops the transport; Send after Close errors.
	Close() error
}

// ChanTransport is the in-process transport: Send hands the frame itself,
// not a copy, to the sink inline. That is safe with Service.Receive, which
// only queues the frame for its due time and never runs a node, so a send
// from inside an input does not re-enter the executor. Send reads the sink
// through an atomic pointer, so concurrent senders share no lock.
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
