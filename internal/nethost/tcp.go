package nethost

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"vinestalk/internal/geo"
)

// maxTCPFrame bounds a length prefix read off the wire before any
// allocation — a hostile peer must not get to size our buffers.
const maxTCPFrame = 1 << 20

// TCPTransport carries frames over TCP: one listener accepts inbound
// streams, outbound frames go over pooled dialed connections, and each
// frame travels as [u32 length | frame bytes]. Routing is pluggable: the
// route function maps a region to the address of the process hosting it,
// so a single-process deployment routes every region to its own listener
// while a sharded one spreads them.
type TCPTransport struct {
	route func(geo.RegionID) string

	mu     sync.Mutex
	ln     net.Listener
	conns  map[string]net.Conn // dial pool, keyed by address
	sink   func([]byte)
	closed bool
	wg     sync.WaitGroup

	// prefix, iov and out are Send's: the length prefix and the frame go
	// out in one writev, so the frame is not copied behind its prefix and
	// nothing is allocated. Guarded by mu.
	prefix [4]byte
	iov    [2][]byte
	out    net.Buffers
}

// NewTCPTransport listens on addr (e.g. "127.0.0.1:0") and routes every
// frame via route; a nil route sends every region to this transport's own
// listener (single-process deployment).
func NewTCPTransport(addr string, route func(geo.RegionID) string) (*TCPTransport, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	t := &TCPTransport{ln: ln, conns: make(map[string]net.Conn), route: route}
	if t.route == nil {
		self := ln.Addr().String()
		t.route = func(geo.RegionID) string { return self }
	}
	return t, nil
}

// Addr returns the listener's address (useful with ":0" listeners).
func (t *TCPTransport) Addr() string { return t.ln.Addr().String() }

// Start implements Transport: register the sink and accept inbound streams.
func (t *TCPTransport) Start(sink func(frame []byte)) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return fmt.Errorf("nethost: transport closed")
	}
	t.sink = sink
	t.mu.Unlock()
	t.wg.Add(1)
	go t.acceptLoop()
	return nil
}

func (t *TCPTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.wg.Add(1)
		go t.readLoop(c)
	}
}

// readLoop decodes length-prefixed frames off one inbound stream. The
// length prefix is untrusted: anything past maxTCPFrame kills the stream
// before a single byte of it is buffered.
func (t *TCPTransport) readLoop(c net.Conn) {
	defer t.wg.Done()
	defer c.Close()
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(c, hdr[:]); err != nil {
			return
		}
		size := binary.BigEndian.Uint32(hdr[:])
		if size == 0 || size > maxTCPFrame {
			return
		}
		frame := make([]byte, size)
		if _, err := io.ReadFull(c, frame); err != nil {
			return
		}
		t.mu.Lock()
		sink := t.sink
		t.mu.Unlock()
		if sink != nil {
			sink(frame)
		}
	}
}

// Send implements Transport: write the length prefix and the frame in one
// call over the pooled connection to the destination's address, dialing on
// first use. The frame is not kept past the call. A write error evicts the
// connection so the next send redials.
func (t *TCPTransport) Send(to geo.RegionID, frame []byte) error {
	if len(frame) > maxTCPFrame {
		return fmt.Errorf("nethost: frame of %d bytes exceeds limit", len(frame))
	}
	addr := t.route(to)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return fmt.Errorf("nethost: transport closed")
	}
	c, ok := t.conns[addr]
	if !ok {
		var err error
		c, err = net.Dial("tcp", addr)
		if err != nil {
			return err
		}
		t.conns[addr] = c
	}
	binary.BigEndian.PutUint32(t.prefix[:], uint32(len(frame)))
	t.iov = [2][]byte{t.prefix[:], frame}
	t.out = t.iov[:]
	_, err := t.out.WriteTo(c)
	t.iov[1] = nil // WriteTo consumes what it wrote; a failed write may leave the frame
	if err != nil {
		c.Close()
		delete(t.conns, addr)
		return err
	}
	return nil
}

// Close implements Transport: stop the listener and drop pooled conns.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.sink = nil
	ln := t.ln
	conns := t.conns
	t.conns = map[string]net.Conn{}
	t.mu.Unlock()
	err := ln.Close()
	for _, c := range conns {
		c.Close()
	}
	t.wg.Wait()
	return err
}
