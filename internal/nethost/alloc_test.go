package nethost

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"vinestalk/internal/geo"
	"vinestalk/internal/sim"
	"vinestalk/internal/vsa"
)

// wakeApp's automatons signal every TimerFire on fired, allocating nothing.
type wakeApp struct {
	recApp
	fired chan vsa.TimerID
}

type wakeAut struct {
	recAut
	fired chan vsa.TimerID
}

func (a *wakeAut) TimerFire(u geo.RegionID, id vsa.TimerID, at sim.Time) { a.fired <- id }

func (a *wakeApp) NewAutomaton(u geo.RegionID, host vsa.Host) vsa.Automaton {
	return &wakeAut{fired: a.fired}
}

// TestWakeupAllocatesNothing: a timer armed on a warmed node and fired —
// the queue entry, the executor taking it and the dispatch — costs no
// allocation.
func TestWakeupAllocatesNothing(t *testing.T) {
	app := &wakeApp{fired: make(chan vsa.TimerID)}
	s := startService(t, app, 1)
	const id = vsa.TimerID(7)
	arm := func(n *Node) { n.SetTimer(0, id, n.Now()) }
	round := func() {
		if err := s.Inject(0, arm); err != nil {
			t.Fatal(err)
		}
		if got := <-app.fired; got != id {
			t.Fatalf("timer %v fired, want %v", got, id)
		}
	}
	round()
	if allocs := testing.AllocsPerRun(1000, round); allocs != 0 {
		t.Fatalf("a timer wakeup allocates %.2f times, want 0", allocs)
	}
}

// TestWakeupOfAKilledNodeIsDropped: a wakeup armed by a node that is
// killed before its deadline reaches neither that node nor the node a
// restart brings up, and a frame queued behind it is still delivered.
func TestWakeupOfAKilledNodeIsDropped(t *testing.T) {
	app := &wakeApp{fired: make(chan vsa.TimerID, 4)}
	s := startService(t, app, 1)
	armed := make(chan struct{})
	if err := s.Inject(0, func(n *Node) {
		n.SetTimer(0, 1, n.Now()+20*time.Millisecond)
		close(armed)
	}); err != nil {
		t.Fatal(err)
	}
	<-armed
	s.KillRegion(0)
	s.RestartRegion(0)
	delivered := make(chan struct{})
	if err := s.Inject(0, func(n *Node) {
		n.SetTimer(0, 2, n.Now()+40*time.Millisecond)
		close(delivered)
	}); err != nil {
		t.Fatal(err)
	}
	<-delivered
	select {
	case id := <-app.fired:
		if id != 2 {
			t.Fatalf("timer %v of the killed node fired", id)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the restarted node's timer never fired")
	}
	select {
	case id := <-app.fired:
		t.Fatalf("timer %v fired after the restarted node's own", id)
	case <-time.After(30 * time.Millisecond):
	}
}

// TestTCPSendAllocatesNothing: TCPTransport.Send writes the length prefix
// and the frame in one call, with no copy of the frame and no allocation,
// once its connection is dialed. The peer is a bare listener that checks
// what arrives.
func TestTCPSendAllocatesNothing(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	frame := encodeFrame(0, 0, "tcp", []byte("over-the-wire"))
	want := append([]byte{0, 0, 0, byte(len(frame))}, frame...)
	const sends = 2002 // one dial, AllocsPerRun's warm-up and its 2 000 runs
	got := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			got <- err
			return
		}
		defer c.Close()
		buf := make([]byte, len(want))
		for i := 0; i < sends; i++ {
			if _, err := io.ReadFull(c, buf); err != nil {
				got <- err
				return
			}
			if !bytes.Equal(buf, want) {
				got <- io.ErrUnexpectedEOF
				return
			}
		}
		got <- nil
	}()
	peer := ln.Addr().String()
	tr, err := NewTCPTransport("127.0.0.1:0", func(geo.RegionID) string { return peer })
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Start(func([]byte) {}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	send := func() {
		if err := tr.Send(0, frame); err != nil {
			t.Fatal(err)
		}
	}
	send()
	if allocs := testing.AllocsPerRun(2000, send); allocs != 0 {
		t.Fatalf("a TCP send allocates %.2f times, want 0", allocs)
	}
	if err := <-got; err != nil {
		t.Fatalf("the peer read: %v", err)
	}
}
