// Command vinestalkd serves a VINESTALK tracking hierarchy as a real
// networked host: one goroutine per grid region (internal/nethost), the
// Tracker automaton per region, wall-clock timers, and the versioned wire
// codec between regions — over an in-process transport by default, or a
// real TCP loopback transport with -transport tcp.
//
// A newline text protocol on the control port drives it:
//
//	place <obj> <region>          introduce object <obj> at <region>
//	move <obj> <from> <to>        GPS transition input
//	find <origin> [obj]           issue a find; replies "ok find <id>"
//	                              (refused for an object never placed)
//	kill <region>                 crash-stop the region's goroutine
//	restart <region>              boot the region fresh (initial state)
//	alive <region>                replies "ok alive true|false"
//	stats                         replies one-line JSON ledger export
//	quit                          close this control connection
//
// Fields are separated by ASCII white space. Every command gets exactly
// one "ok ..." or "err ..." reply line, in command order on the connection
// that sent it. Completed finds are pushed asynchronously to every control
// connection as "found <id> <obj> <origin> <foundAt>" lines. Lines are never split or
// interleaved. A client that stops reading is disconnected once 8 MB of
// output waits for it (one line on stderr), so it cannot stall the daemon.
//
// Usage:
//
//	vinestalkd [-side 4] [-base 2] [-delta 10ms] [-lag 5ms]
//	           [-heartbeat 60ms] [-listen 127.0.0.1:7717]
//	           [-transport chan|tcp] [-data 127.0.0.1:0]
//	           [-chaos-windows 0] [-chaos-len 200ms] [-chaos-drop 0]
//	           [-chaos-horizon 2s] [-chaos-seed 1]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"sync"
	"time"

	"vinestalk/internal/chaos"
	"vinestalk/internal/geo"
	"vinestalk/internal/hier"
	"vinestalk/internal/nethost"
	"vinestalk/internal/tracker"
)

func main() {
	var (
		side      = flag.Int("side", 4, "grid side length (regions per side)")
		base      = flag.Int("base", 2, "hierarchy base r")
		delta     = flag.Duration("delta", 10*time.Millisecond, "δ: client↔cluster broadcast delay")
		lag       = flag.Duration("lag", 5*time.Millisecond, "e: VSA output lag (unit = δ+e)")
		heartbeat = flag.Duration("heartbeat", 60*time.Millisecond, "§VII client refresh period (0 disables healing)")
		listen    = flag.String("listen", "127.0.0.1:7717", "control-protocol listen address")
		transport = flag.String("transport", "chan", "inter-region transport: chan (in-process) or tcp")
		dataAddr  = flag.String("data", "127.0.0.1:0", "data-plane listen address (tcp transport)")

		chaosWindows = flag.Int("chaos-windows", 0, "scripted region crash windows")
		chaosLen     = flag.Duration("chaos-len", 200*time.Millisecond, "length of each crash window")
		chaosDrop    = flag.Float64("chaos-drop", 0, "in-window frame loss probability")
		chaosHorizon = flag.Duration("chaos-horizon", 2*time.Second, "time after which faults cease")
		chaosSeed    = flag.Int64("chaos-seed", 1, "fault-plan seed")
	)
	flag.Parse()
	if err := run(*side, *base, *delta, *lag, *heartbeat, *listen, *transport, *dataAddr,
		*chaosWindows, *chaosLen, *chaosDrop, *chaosHorizon, *chaosSeed); err != nil {
		fmt.Fprintln(os.Stderr, "vinestalkd:", err)
		os.Exit(1)
	}
}

// maxPendingOutput bounds the output queued on one control connection. A
// client that stops reading is disconnected once this much waits for it,
// so it cannot hold up the founds and replies of every other connection.
const maxPendingOutput = 8 << 20

// keepWriteBuffer is the largest buffer a connection's writer keeps after
// writing it; a larger one, left by a burst, goes back to the collector.
const keepWriteBuffer = 64 << 10

// server fans found outputs out to every control connection.
type server struct {
	nh  *tracker.NetHost
	svc *nethost.Service

	// maxPending is the bound on each connection's queued output,
	// maxPendingOutput outside tests.
	maxPending int

	mu    sync.Mutex
	conns map[*conn]struct{}
}

// conn is one control connection. Its commands run in order on its handle
// goroutine. Every line it is sent, replies and founds alike, is appended
// whole to out and written by the connection's own writer goroutine, which
// writes everything queued while its previous write was in flight in one
// call. So a reply never waits for another connection, and a found never
// waits for any socket.
type conn struct {
	nc    net.Conn
	limit int

	mu     sync.Mutex
	out    []byte // queued lines, not yet taken by the writer
	closed bool   // nothing more is queued: finished, over limit, or write failed

	ready chan struct{} // one pending wakeup for the writer
	done  chan struct{} // closed when the writer has exited
}

// newServer builds the tracker on hierarchy h over transport tr (nil: the
// in-process channel transport), with a control server whose connections
// receive every found. The service is not started.
func newServer(h *hier.Hierarchy, delta, lag, heartbeat time.Duration, tr nethost.Transport) (*server, error) {
	srv := &server{maxPending: maxPendingOutput, conns: make(map[*conn]struct{})}
	nh, err := tracker.NewNetHost(h, tracker.NetConfig{
		Geom:      hier.MeasureGeometry(h),
		Delta:     delta,
		Unit:      delta + lag,
		Heartbeat: heartbeat,
		OnFound:   srv.broadcastFound,
	})
	if err != nil {
		return nil, err
	}
	svc, err := nethost.New(nh, nethost.Config{NumRegions: h.Tiling().NumRegions(), Transport: tr})
	if err != nil {
		return nil, err
	}
	nh.Attach(svc)
	srv.nh, srv.svc = nh, svc
	return srv, nil
}

func run(side, base int, delta, lag, heartbeat time.Duration, listen, transport, dataAddr string,
	chaosWindows int, chaosLen time.Duration, chaosDrop float64, chaosHorizon time.Duration, chaosSeed int64) error {
	tiling, err := geo.NewGridTiling(side, side)
	if err != nil {
		return err
	}
	h, err := hier.NewGrid(tiling, base)
	if err != nil {
		return err
	}
	var tr nethost.Transport
	if transport == "tcp" {
		tcp, err := nethost.NewTCPTransport(dataAddr, nil)
		if err != nil {
			return err
		}
		fmt.Printf("vinestalkd: data plane on tcp %s\n", tcp.Addr())
		tr = tcp
	} else if transport != "chan" {
		return fmt.Errorf("unknown transport %q (chan or tcp)", transport)
	}
	srv, err := newServer(h, delta, lag, heartbeat, tr)
	if err != nil {
		return err
	}
	svc := srv.svc

	if chaosWindows > 0 {
		plan, err := chaos.NewPlan(chaos.Config{
			Seed: chaosSeed, CrashWindows: chaosWindows, CrashLen: chaosLen,
			DropProb: chaosDrop, Horizon: chaosHorizon,
		})
		if err != nil {
			return err
		}
		if err := plan.InstallNet(svc); err != nil {
			return err
		}
		for _, w := range plan.Windows() {
			fmt.Printf("vinestalkd: chaos window region %v [%v, %v)\n", w.Region, w.Start, w.End)
		}
	}

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	if err := svc.Start(); err != nil {
		return err
	}
	defer svc.Stop()
	fmt.Printf("vinestalkd: serving %dx%d grid (r=%d, %d clusters, max level %d) on %s\n",
		side, side, base, h.NumClusters(), h.MaxLevel(), ln.Addr())
	return srv.serve(ln)
}

// serve accepts control connections on ln, each handled on its own
// goroutine, until ln is closed.
func (s *server) serve(ln net.Listener) error {
	for {
		c, err := ln.Accept()
		if err != nil {
			return err
		}
		go s.handle(c)
	}
}

// broadcastFound queues one found line on every control connection. It
// runs on the region goroutine that completed the find, so it formats the
// line once, on the stack, and never touches a socket.
func (s *server) broadcastFound(r tracker.FindResult) {
	var b [64]byte
	line := append(b[:0], "found "...)
	line = strconv.AppendInt(line, int64(r.ID), 10)
	line = append(line, ' ')
	line = strconv.AppendInt(line, int64(r.Object), 10)
	line = append(line, ' ')
	line = strconv.AppendInt(line, int64(r.Origin), 10)
	line = append(line, ' ')
	line = strconv.AppendInt(line, int64(r.FoundAt), 10)
	line = append(line, '\n')
	s.mu.Lock()
	for c := range s.conns {
		c.queue(line)
	}
	s.mu.Unlock()
}

// handle runs one connection's commands in order, queueing each reply on
// the connection, until the client quits or the connection fails.
func (s *server) handle(nc net.Conn) {
	c := &conn{nc: nc, limit: s.maxPending, ready: make(chan struct{}, 1), done: make(chan struct{})}
	go c.write()
	s.mu.Lock()
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.finish()
	}()
	var line []byte
	var fields [][]byte
	sc := bufio.NewScanner(nc)
	for sc.Scan() {
		fields = splitFields(fields[:0], sc.Bytes())
		var quit bool
		if line, quit = s.exec(line[:0], fields); quit {
			return
		}
		c.queue(append(line, '\n'))
	}
}

// splitFields appends the fields of line, separated by runs of ASCII white
// space, to dst; each field aliases line.
func splitFields(dst [][]byte, line []byte) [][]byte {
	start := -1
	for i, b := range line {
		switch b {
		case ' ', '\t', '\n', '\v', '\f', '\r':
			if start >= 0 {
				dst = append(dst, line[start:i])
				start = -1
			}
		default:
			if start < 0 {
				start = i
			}
		}
	}
	if start >= 0 {
		dst = append(dst, line[start:])
	}
	return dst
}

// queue appends one whole line for the writer. A connection whose queued
// output would pass its limit is closed instead, with one line on stderr:
// its client has stopped reading.
func (c *conn) queue(line []byte) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	if len(c.out)+len(line) > c.limit {
		c.closed = true
		queued := len(c.out)
		c.mu.Unlock()
		fmt.Fprintf(os.Stderr, "vinestalkd: control connection %v stopped reading with %d bytes queued; closed\n",
			c.nc.RemoteAddr(), queued)
		c.nc.Close()
		signal(c.ready)
		return
	}
	first := len(c.out) == 0
	c.out = append(c.out, line...)
	c.mu.Unlock()
	if first {
		signal(c.ready)
	}
}

// write is the connection's writer goroutine: each time lines are queued it
// takes all of them and writes them in one call. It exits once the
// connection is closed and its last lines are written, or a write fails.
func (c *conn) write() {
	defer close(c.done)
	var buf []byte
	for {
		<-c.ready
		c.mu.Lock()
		buf, c.out = c.out, buf[:0]
		closed := c.closed
		c.mu.Unlock()
		if len(buf) > 0 {
			if _, err := c.nc.Write(buf); err != nil {
				c.mu.Lock()
				c.closed, c.out = true, nil
				c.mu.Unlock()
				c.nc.Close()
				return
			}
		}
		if closed {
			return
		}
		if cap(buf) > keepWriteBuffer {
			buf = nil
		}
	}
}

// finish stops queueing, waits for the writer to write what is queued, and
// closes the connection.
func (c *conn) finish() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	signal(c.ready)
	<-c.done
	c.nc.Close()
}

// signal leaves one pending wakeup on ch unless one is already there.
func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// exec runs one control command, given as its fields, and appends its
// reply line, without the newline, to reply; quit reports the quit command,
// which has no reply. A number is parsed from its field's bytes, so a find
// allocates nothing here.
func (s *server) exec(reply []byte, fields [][]byte) (out []byte, quit bool) {
	if len(fields) == 0 {
		return append(reply, "err empty command"...), false
	}
	failed := func(err error) []byte { return append(append(reply, "err "...), err.Error()...) }
	argN := func(i int) (int, error) { return strconv.Atoi(string(fields[i])) }
	// Object ids are int32 on the wire: a negative or wider number is
	// refused, not wrapped onto another object's id.
	objN := func(i int) (tracker.ObjectID, error) {
		v, err := strconv.ParseUint(string(fields[i]), 10, 31)
		return tracker.ObjectID(v), err
	}
	switch cmd := string(fields[0]); cmd {
	case "place":
		if len(fields) != 3 {
			return append(reply, "err usage: place <obj> <region>"...), false
		}
		obj, e1 := objN(1)
		at, e2 := argN(2)
		if e1 != nil || e2 != nil {
			return append(reply, "err bad arguments"...), false
		}
		if err := s.nh.PlaceObject(obj, geo.RegionID(at)); err != nil {
			return failed(err), false
		}
		return append(reply, "ok place"...), false
	case "move":
		if len(fields) != 4 {
			return append(reply, "err usage: move <obj> <from> <to>"...), false
		}
		obj, e1 := objN(1)
		from, e2 := argN(2)
		to, e3 := argN(3)
		if e1 != nil || e2 != nil || e3 != nil {
			return append(reply, "err bad arguments"...), false
		}
		if err := s.nh.MoveObject(obj, geo.RegionID(from), geo.RegionID(to)); err != nil {
			return failed(err), false
		}
		return append(reply, "ok move"...), false
	case "find":
		if len(fields) != 2 && len(fields) != 3 {
			return append(reply, "err usage: find <origin> [obj]"...), false
		}
		origin, e1 := argN(1)
		obj := tracker.DefaultObject
		var e2 error
		if len(fields) == 3 {
			obj, e2 = objN(2)
		}
		if e1 != nil || e2 != nil {
			return append(reply, "err bad arguments"...), false
		}
		id, err := s.nh.FindObject(geo.RegionID(origin), obj)
		if err != nil {
			return failed(err), false
		}
		return strconv.AppendInt(append(reply, "ok find "...), int64(id), 10), false
	case "kill", "restart", "alive":
		if len(fields) != 2 {
			return append(append(append(reply, "err usage: "...), cmd...), " <region>"...), false
		}
		u, e1 := argN(1)
		if e1 != nil {
			return append(reply, "err bad arguments"...), false
		}
		region := geo.RegionID(u)
		if !s.nh.Hierarchy().Tiling().Contains(region) {
			return append(reply, "err region out of range"...), false
		}
		switch cmd {
		case "kill":
			s.svc.KillRegion(region)
		case "restart":
			s.svc.RestartRegion(region)
		case "alive":
			return strconv.AppendBool(append(reply, "ok alive "...), s.svc.RegionAlive(region)), false
		}
		return append(append(reply, "ok "...), cmd...), false
	case "stats":
		data, err := json.Marshal(s.svc.LedgerExport())
		if err != nil {
			return failed(err), false
		}
		return append(append(reply, "ok stats "...), data...), false
	case "quit":
		return reply, true
	default:
		return strconv.AppendQuote(append(reply, "err unknown command "...), cmd), false
	}
}
