package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"vinestalk/internal/geo"
	"vinestalk/internal/hier"
)

// The daemon's own timing: δ = 10 ms, e = 5 ms, heartbeats off, the
// in-process data plane — what benchmark/'s daemon8 starts vinestalkd with.
const (
	testDelta = 10 * time.Millisecond
	testLag   = 5 * time.Millisecond
)

// startDaemon starts an in-process daemon on a side×side grid (r = 2) whose
// control server serves a loopback listener, and returns it and the
// listener's address. Everything stops at the test's cleanup.
func startDaemon(tb testing.TB, side int) (*server, string) {
	tb.Helper()
	srv, err := newServer(hier.MustGrid(geo.MustGridTiling(side, side), 2), testDelta, testLag, 0, nil)
	if err != nil {
		tb.Fatal(err)
	}
	if err := srv.svc.Start(); err != nil {
		tb.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.svc.Stop()
		tb.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.serve(ln)
	}()
	tb.Cleanup(func() {
		ln.Close()
		<-served
		srv.svc.Stop()
	})
	return srv, ln.Addr().String()
}

// cascadeBound is 8·D·(δ+e) on a side×side grid: how long a placement's
// grow cascade may take.
func cascadeBound(side int) time.Duration {
	return time.Duration(8*(side-1)) * (testDelta + testLag)
}

// client is one control connection: commands are written under wmu, and one
// reader goroutine hands every line received, without its newline, to
// onLine.
type client struct {
	nc   net.Conn
	wmu  sync.Mutex
	w    *bufio.Writer
	done chan struct{}
}

func dial(tb testing.TB, addr string, onLine func(line []byte)) *client {
	tb.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		tb.Fatal(err)
	}
	c := &client{nc: nc, w: bufio.NewWriter(nc), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		r := bufio.NewReaderSize(nc, 64<<10)
		for {
			line, err := r.ReadSlice('\n')
			if err != nil {
				return
			}
			onLine(line[:len(line)-1])
		}
	}()
	tb.Cleanup(func() {
		nc.Close()
		<-c.done
	})
	return c
}

// send writes command lines and flushes them.
func (c *client) send(cmds ...string) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	for _, cmd := range cmds {
		c.w.WriteString(cmd)
		c.w.WriteByte('\n')
	}
	return c.w.Flush()
}

// session is a client that keeps what it receives: every reply in arrival
// order, how often each find id was reported found, and any line that does
// not parse.
type session struct {
	*client
	mu      sync.Mutex
	replies []string
	founds  map[int64]int
	bad     []string
}

func openSession(tb testing.TB, addr string) *session {
	s := &session{founds: make(map[int64]int)}
	s.client = dial(tb, addr, s.line)
	return s
}

// line sorts one received line: a found must be "found" and four integers,
// a reply "ok …" or "err …".
func (s *session) line(b []byte) {
	l := string(b)
	s.mu.Lock()
	defer s.mu.Unlock()
	switch f := strings.Fields(l); {
	case len(f) > 0 && f[0] == "found":
		ok := len(f) == 5 && l == strings.Join(f, " ")
		var id int64
		for i := 1; ok && i < 5; i++ {
			v, err := strconv.ParseInt(f[i], 10, 64)
			ok = err == nil
			if i == 1 {
				id = v
			}
		}
		if !ok {
			s.bad = append(s.bad, l)
			return
		}
		s.founds[id]++
	case strings.HasPrefix(l, "ok ") || strings.HasPrefix(l, "err "):
		s.replies = append(s.replies, l)
	default:
		s.bad = append(s.bad, l)
	}
}

// await polls cond under s.mu until it holds, failing the test at deadline.
func (s *session) await(tb testing.TB, what string, deadline time.Time, cond func() bool) {
	tb.Helper()
	for {
		s.mu.Lock()
		ok := cond()
		s.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			tb.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// placeAndSettle places objects 1…objects, object k at region k mod the
// grid's regions, on s, then probes with a find on the last one, from half
// the grid's regions further on, until it is answered: the find waits on
// its way for the object's grow
// cascade, and it is re-issued after the cascade's bound in case it raced
// the cascade and was lost (heartbeats are off). It returns the number of
// probe finds sent.
func (s *session) placeAndSettle(tb testing.TB, side, objects int, deadline time.Time) (probes int) {
	tb.Helper()
	cmds := make([]string, objects)
	for k := 1; k <= objects; k++ {
		cmds[k-1] = fmt.Sprintf("place %d %d", k, k%(side*side))
	}
	if err := s.send(cmds...); err != nil {
		tb.Fatal(err)
	}
	s.await(tb, "every placement", deadline, func() bool { return len(s.replies) >= objects })
	for {
		origin := (objects + side*side/2) % (side * side)
		if err := s.send(fmt.Sprintf("find %d %d", origin, objects)); err != nil {
			tb.Fatal(err)
		}
		probes++
		retry := time.Now().Add(cascadeBound(side))
		if retry.After(deadline) {
			retry = deadline
		}
		answered := false
		s.await(tb, "the probe find", deadline, func() bool {
			answered = len(s.founds) > 0
			return answered || time.Now().After(retry)
		})
		if answered {
			return probes
		}
	}
}

// TestControlProtocolIntegrity runs an in-process daemon with three
// loopback control connections that pipeline finds and alive pings
// concurrently. Every line must parse; each connection's replies must come
// in the order of its commands (find ids rising); and every found must
// reach every connection exactly once.
func TestControlProtocolIntegrity(t *testing.T) {
	const side, conns, finds = 4, 3, 60
	objects := conns * finds
	_, addr := startDaemon(t, side)
	deadline := time.Now().Add(30 * time.Second)
	ss := make([]*session, conns)
	for i := range ss {
		ss[i] = openSession(t, addr)
	}
	probes := ss[0].placeAndSettle(t, side, objects, deadline)

	// want[i] is the reply prefixes connection i must read, in order.
	want := make([][]string, conns)
	for range objects {
		want[0] = append(want[0], "ok place")
	}
	for range probes {
		want[0] = append(want[0], "ok find ")
	}
	var wg sync.WaitGroup
	for i, s := range ss {
		rng := rand.New(rand.NewSource(int64(i + 1)))
		var cmds []string
		for j := 0; j < finds; j++ {
			cmds = append(cmds, fmt.Sprintf("find %d %d", rng.Intn(side*side), 1+i*finds+j))
			want[i] = append(want[i], "ok find ")
			if j%4 == 0 {
				cmds = append(cmds, fmt.Sprintf("alive %d", rng.Intn(side*side)))
				want[i] = append(want[i], "ok alive true")
			}
		}
		wg.Add(1)
		go func(s *session, cmds []string) {
			defer wg.Done()
			for k := 0; k < len(cmds); k += 8 {
				if err := s.send(cmds[k:min(k+8, len(cmds))]...); err != nil {
					t.Error(err)
					return
				}
			}
		}(s, cmds)
	}
	wg.Wait()

	// ids are the finds that must be found; a probe raced by its cascade may
	// be lost, so probes need only be found at most once.
	ids, probeIDs := map[int64]bool{}, map[int64]bool{}
	for i, s := range ss {
		s.await(t, fmt.Sprintf("connection %d's replies", i), deadline, func() bool { return len(s.replies) >= len(want[i]) })
		s.mu.Lock()
		last := int64(-1)
		for k, r := range s.replies {
			if k >= len(want[i]) || !strings.HasPrefix(r, want[i][k]) {
				t.Fatalf("connection %d reply %d = %q, want %q… (replies out of command order)", i, k, r, want[i][min(k, len(want[i])-1)])
			}
			if id, ok := strings.CutPrefix(r, "ok find "); ok {
				v, err := strconv.ParseInt(id, 10, 64)
				if err != nil || v <= last {
					t.Fatalf("connection %d reply %d = %q after find id %d", i, k, r, last)
				}
				last = v
				if i == 0 && k < objects+probes {
					probeIDs[v] = true
				} else {
					ids[v] = true
				}
			}
		}
		s.mu.Unlock()
	}
	for i, s := range ss {
		s.await(t, fmt.Sprintf("every found on connection %d", i), deadline, func() bool {
			for id := range ids {
				if s.founds[id] == 0 {
					return false
				}
			}
			return true
		})
	}
	// A duplicate would follow its first copy within a few δ+e.
	time.Sleep(10 * (testDelta + testLag))
	for i, s := range ss {
		s.mu.Lock()
		if len(s.bad) > 0 {
			t.Errorf("connection %d read %d malformed lines, first %q", i, len(s.bad), s.bad[0])
		}
		for id, n := range s.founds {
			if !ids[id] && !probeIDs[id] || n != 1 {
				t.Errorf("connection %d saw find %d found %d times (issued: %v), want exactly once", i, id, n, ids[id] || probeIDs[id])
			}
		}
		s.mu.Unlock()
	}
}

// TestStalledControlClientDoesNotStallDaemon: one control connection is a
// net.Pipe end that is never read. Finds on a second, live connection must
// all be answered before a deadline, and the stalled connection is closed
// once the founds queued for it pass its bound. (With founds written to
// every socket in turn under one lock, the first found blocks forever on the
// pipe, and the live connection's replies with it.)
func TestStalledControlClientDoesNotStallDaemon(t *testing.T) {
	const side, finds, limit = 4, 200, 2 << 10
	srv, addr := startDaemon(t, side)
	connected := func() int {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.conns)
	}
	live := openSession(t, addr)
	deadline := time.Now().Add(20 * time.Second)
	live.await(t, "the live connection", deadline, func() bool { return connected() == 1 })
	// Only the stalled connection gets the small bound: the live one's
	// pipelined replies may queue past it while a write is in flight.
	srv.maxPending = limit
	stalled, peer := net.Pipe()
	t.Cleanup(func() {
		stalled.Close()
		peer.Close()
	})
	go srv.handle(peer)
	live.await(t, "both connections", deadline, func() bool { return connected() == 2 })

	live.placeAndSettle(t, side, finds, deadline)
	live.mu.Lock()
	base := len(live.founds)
	live.mu.Unlock()
	cmds := make([]string, finds)
	for k := range cmds {
		cmds[k] = fmt.Sprintf("find %d %d", (k*7)%(side*side), k+1)
	}
	if err := live.send(cmds...); err != nil {
		t.Fatal(err)
	}
	live.await(t, "every find on the live connection", deadline, func() bool {
		return len(live.founds) >= base+finds
	})
	live.await(t, "the stalled connection to be closed", deadline, func() bool { return connected() == 1 })
	if _, err := stalled.Write([]byte("alive 0\n")); err == nil {
		t.Fatal("the stalled connection still accepts commands after passing its bound")
	}
}

// selfCPU is the user+system CPU time this process has consumed.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// BenchmarkDaemonFinds is daemon8's shape in one process: an 8×8 grid with
// 2 048 placed objects and two loopback control connections that keep 512
// finds in flight between them (a closed loop: each found lets one more find
// go). It reports the process's CPU per find, daemon and clients together,
// as cpu-µs/find; `make profile-daemon` runs it under the CPU profiler.
// Consecutive finds name distinct objects, so no two finds in flight share
// one.
func BenchmarkDaemonFinds(b *testing.B) {
	const side, objects, conns, window = 8, 2048, 2, 512
	_, addr := startDaemon(b, side)
	var found atomic.Int64
	tokens := make(chan struct{}, window)
	foundPrefix := []byte("found ")
	setup := openSession(b, addr)
	setup.placeAndSettle(b, side, objects, time.Now().Add(30*time.Second))
	setup.nc.Close()
	<-setup.done
	cs := make([]*client, conns)
	for i := range cs {
		first := i == 0
		cs[i] = dial(b, addr, func(line []byte) {
			if first && bytes.HasPrefix(line, foundPrefix) {
				found.Add(1)
				tokens <- struct{}{}
			}
		})
	}
	for range window {
		tokens <- struct{}{}
	}
	var issued atomic.Int64
	b.ResetTimer()
	cpu0 := selfCPU()
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func(c *client, rng *rand.Rand) {
			defer wg.Done()
			var buf []byte
			for range tokens {
				k := issued.Add(1)
				if k > int64(b.N) {
					return
				}
				buf = append(buf[:0], "find "...)
				buf = strconv.AppendInt(buf, int64(rng.Intn(side*side)), 10)
				buf = append(buf, ' ')
				buf = strconv.AppendInt(buf, 1+k%objects, 10)
				buf = append(buf, '\n')
				c.wmu.Lock()
				c.w.Write(buf)
				var err error
				if len(tokens) == 0 || c.w.Buffered() > 4<<10 {
					err = c.w.Flush()
				}
				c.wmu.Unlock()
				if err != nil {
					b.Error(err)
					return
				}
			}
		}(c, rand.New(rand.NewSource(int64(i+1))))
	}
	last, lastAt := int64(0), time.Now()
	for found.Load() < int64(b.N) {
		if n := found.Load(); n != last {
			last, lastAt = n, time.Now()
		} else if time.Since(lastAt) > 10*time.Second {
			b.Fatalf("no found for 10 s with %d of %d finds answered", n, b.N)
		}
		for _, c := range cs {
			c.wmu.Lock()
			err := c.w.Flush()
			c.wmu.Unlock()
			if err != nil {
				b.Fatal(err)
			}
		}
		time.Sleep(time.Millisecond)
	}
	cpu := selfCPU() - cpu0
	b.StopTimer()
	close(tokens)
	wg.Wait()
	b.ReportMetric(float64(cpu.Microseconds())/float64(b.N), "cpu-µs/find")
}

// TestLongControlLineIsAnswered: a control line longer than maxLine gets
// one err reply and is skipped up to its newline, and the connection goes
// on serving the commands after it, in order.
func TestLongControlLineIsAnswered(t *testing.T) {
	srv, _ := startDaemon(t, 2)
	client, peer := net.Pipe()
	t.Cleanup(func() {
		client.Close()
		peer.Close()
	})
	go srv.handle(peer)
	if err := client.SetDeadline(time.Now().Add(20 * time.Second)); err != nil {
		t.Fatal(err)
	}
	long := "place 1 " + strings.Repeat("9", maxLine+6_000) + "\n"
	go func() {
		_, _ = client.Write([]byte("alive 0\n" + long + "alive 1\n" + long + long + "quit\n"))
	}()
	r := bufio.NewReader(client)
	for _, want := range []string{
		"ok alive true", "err line too long", "ok alive true", "err line too long", "err line too long",
	} {
		got, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("read %q so far, then %v; want the reply %q", got, err, want)
		}
		if got = strings.TrimSuffix(got, "\n"); got != want {
			t.Fatalf("reply %q, want %q", got, want)
		}
	}
}
