package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"
)

// The daemon's control protocol is newline text: every command gets exactly
// one "ok ..." or "err ..." reply, in order, on the connection that sent it,
// while "found <id> <obj> <origin> <foundAt>" lines are pushed to every
// connection whenever a find completes. A pipelined client therefore needs a
// FIFO of what it sent per connection for the replies and an id-keyed table
// for the founds.

// pending is one command written and not yet answered.
type pending struct {
	find   bool
	obj    int32
	expect int32     // region the generator holds the object at
	due    time.Time // when the command was scheduled to be sent
	sent   time.Time
	// reply, when set, receives the reply line of a synchronous command.
	reply chan string
}

// foundLine is one parsed "found" push.
type foundLine struct {
	id      int64
	obj     int32
	origin  int32
	foundAt int32
}

// demux splits one connection's line stream. Replies pop the FIFO; founds go
// to the handler. It owns no goroutine and no socket, so a test can feed it
// lines directly.
type demux struct {
	mu      sync.Mutex
	fifo    []*pending
	head    int
	onReply func(p *pending, ok bool, line []byte, at time.Time)
	onFound func(f foundLine, at time.Time)
}

// push registers a written command. Callers hold the connection's write
// lock, so FIFO order is write order.
func (d *demux) push(p *pending) {
	d.mu.Lock()
	switch {
	case d.head == len(d.fifo):
		d.fifo, d.head = d.fifo[:0], 0
	case d.head > 4096 && d.head > len(d.fifo)/2:
		d.fifo = append(d.fifo[:0], d.fifo[d.head:]...)
		d.head = 0
	}
	d.fifo = append(d.fifo, p)
	d.mu.Unlock()
}

func (d *demux) pop() *pending {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.head == len(d.fifo) {
		return nil
	}
	p := d.fifo[d.head]
	d.fifo[d.head] = nil
	d.head++
	return p
}

// outstanding is the number of commands still waiting for their reply.
func (d *demux) outstanding() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.fifo) - d.head
}

var (
	prefFound = []byte("found ")
	prefOK    = []byte("ok")
	prefErr   = []byte("err")
)

// line dispatches one line received at time at.
func (d *demux) line(b []byte, at time.Time) error {
	switch {
	case bytes.HasPrefix(b, prefFound):
		f, err := parseFound(b[len(prefFound):])
		if err != nil {
			return err
		}
		if d.onFound != nil {
			d.onFound(f, at)
		}
		return nil
	case bytes.HasPrefix(b, prefOK), bytes.HasPrefix(b, prefErr):
		p := d.pop()
		if p == nil {
			return fmt.Errorf("ctl: reply %q with no command outstanding", b)
		}
		ok := b[0] == 'o'
		if p.reply != nil {
			p.reply <- string(b)
		}
		if d.onReply != nil {
			d.onReply(p, ok, b, at)
		}
		return nil
	}
	return fmt.Errorf("ctl: unrecognised line %q", b)
}

// parseInts reads n space-separated decimal integers.
func parseInts(b []byte, out []int64) error {
	i := 0
	for k := range out {
		for i < len(b) && b[i] == ' ' {
			i++
		}
		start := i
		neg := false
		if i < len(b) && b[i] == '-' {
			neg = true
			i++
		}
		var v int64
		digits := 0
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			v = v*10 + int64(b[i]-'0')
			i++
			digits++
		}
		if digits == 0 {
			return fmt.Errorf("ctl: expected %d integers in %q (stopped at byte %d)", len(out), b, start)
		}
		if neg {
			v = -v
		}
		out[k] = v
	}
	return nil
}

func parseFound(b []byte) (foundLine, error) {
	var v [4]int64
	if err := parseInts(b, v[:]); err != nil {
		return foundLine{}, err
	}
	return foundLine{id: v[0], obj: int32(v[1]), origin: int32(v[2]), foundAt: int32(v[3])}, nil
}

// parseFindID reads the id out of "ok find <id>".
func parseFindID(line []byte) (int64, error) {
	const pre = "ok find "
	if !bytes.HasPrefix(line, []byte(pre)) {
		return 0, fmt.Errorf("ctl: find answered %q", line)
	}
	return strconv.ParseInt(string(line[len(pre):]), 10, 64)
}

// ctlConn is one pipelined control connection: writers append commands under
// wmu, one reader goroutine feeds the demux.
type ctlConn struct {
	conn net.Conn
	wmu  sync.Mutex
	w    *bufio.Writer
	dm   *demux
	done chan struct{} // closed when the reader exits
	err  error         // why it exited; read after done
}

func dialCtl(addr string, dm *demux) (*ctlConn, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	c := &ctlConn{conn: conn, w: bufio.NewWriterSize(conn, 64<<10), dm: dm, done: make(chan struct{})}
	go c.read()
	return c, nil
}

func (c *ctlConn) read() {
	defer close(c.done)
	defer func() {
		if r := recover(); r != nil {
			c.err = fmt.Errorf("ctl: reader panicked: %v", r)
		}
	}()
	r := bufio.NewReaderSize(c.conn, 256<<10)
	for {
		line, err := r.ReadSlice('\n')
		if err != nil {
			c.err = err
			return
		}
		if err := c.dm.line(bytes.TrimRight(line, "\r\n"), time.Now()); err != nil {
			c.err = err
			return
		}
	}
}

// send writes one command line and registers it, without flushing.
func (c *ctlConn) send(p *pending, line []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.dm.push(p)
	_, err := c.w.Write(line)
	return err
}

func (c *ctlConn) flush() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.w.Flush()
}

// call sends one command and waits for its reply line.
func (c *ctlConn) call(cmd string, timeout time.Duration) (string, error) {
	p := &pending{reply: make(chan string, 1), sent: time.Now()}
	if err := c.send(p, []byte(cmd+"\n")); err != nil {
		return "", err
	}
	if err := c.flush(); err != nil {
		return "", err
	}
	select {
	case line := <-p.reply:
		return line, nil
	case <-c.done:
		return "", fmt.Errorf("ctl: connection closed waiting for the reply to %q: %v", cmd, c.err)
	case <-time.After(timeout):
		return "", fmt.Errorf("ctl: no reply to %q within %v", cmd, timeout)
	}
}

func (c *ctlConn) close() {
	c.conn.Close()
	<-c.done
}

// appendFind formats "find <origin> <obj>\n" without fmt, on the generator's
// hot path.
func appendFind(b []byte, origin, obj int32) []byte {
	b = append(b, "find "...)
	b = strconv.AppendInt(b, int64(origin), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(obj), 10)
	return append(b, '\n')
}
