package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// The load generator drives vinestalkd in two phases. Phase open is an open
// loop: finds leave on a fixed schedule whatever the daemon does,
// and a find's latency is stamped from the time it was due, so a stall
// delays — and is charged to — every request scheduled behind it (no
// coordinated omission). Phase sat is a closed loop that keeps a fixed number
// of finds outstanding and measures what the daemon completes per second.

// schedOp is one find of the open-loop schedule.
type schedOp struct {
	due    time.Duration // offset from the phase start
	obj    int32
	origin int32
	expect int32 // where the find must be answered
}

// openParams sizes phase open.
type openParams struct {
	regions  int
	findRate float64 // finds per second
	length   time.Duration
}

// buildOpenSchedule generates the whole phase from the seed, in due order:
// finds at a fixed rate, each from a seeded origin on a seeded object, to be
// answered at the generator's position of that object (pos, by id).
//
// There are no moves. A move's grow and shrink cascades race in real time on
// the networked host, with a margin of one δ+e; with heartbeats off an
// object whose shrink wins stays unfindable, and about one run in thirty
// lost one that way whatever the move discipline (see README.md). A
// workload must have no failing operation.
func buildOpenSchedule(rng *rand.Rand, p openParams, pos []int32) []schedOp {
	gap := time.Duration(float64(time.Second) / p.findRate)
	var ops []schedOp
	for due := gap / 2; due < p.length; due += gap {
		obj := int32(1 + rng.Intn(len(pos)-1))
		ops = append(ops, schedOp{due: due, obj: obj, origin: int32(rng.Intn(p.regions)), expect: pos[obj]})
	}
	return ops
}

// findTable matches found pushes to finds. Every connection receives every
// found line, so only the first connection's reader reports them; a found
// that overtakes the "ok find <id>" reply of another connection waits in
// early.
type findTable struct {
	mu      sync.Mutex
	waiting map[int64]*pending
	early   map[int64]earlyFound
	done    func(p *pending, f foundLine, at time.Time)
}

type earlyFound struct {
	f  foundLine
	at time.Time
}

func newFindTable(done func(p *pending, f foundLine, at time.Time)) *findTable {
	return &findTable{waiting: map[int64]*pending{}, early: map[int64]earlyFound{}, done: done}
}

// issued registers a find whose id the daemon just reported.
func (t *findTable) issued(id int64, p *pending) {
	t.mu.Lock()
	e, ok := t.early[id]
	if ok {
		delete(t.early, id)
	} else {
		t.waiting[id] = p
	}
	t.mu.Unlock()
	if ok {
		t.done(p, e.f, e.at)
	}
}

// found reports a completed find.
func (t *findTable) found(f foundLine, at time.Time) {
	t.mu.Lock()
	p, ok := t.waiting[f.id]
	if ok {
		delete(t.waiting, f.id)
	} else {
		t.early[f.id] = earlyFound{f, at}
	}
	t.mu.Unlock()
	if ok {
		t.done(p, f, at)
	}
}

// expire fails every find issued before cutoff and still unanswered, and
// returns them.
func (t *findTable) expire(cutoff time.Time) []*pending {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*pending
	for id, p := range t.waiting {
		if p.due.Before(cutoff) {
			out = append(out, p)
			delete(t.waiting, id)
		}
	}
	return out
}

func (t *findTable) outstanding() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.waiting)
}

// phaseStats is what a phase of the generator measured. Its recording
// methods are the callbacks of the demuxes and the find table, called from
// the reader goroutines.
type phaseStats struct {
	mu      sync.Mutex
	findUs  []float64   // due → found, answered at the right region
	findDue []time.Time // when each find of findUs was due
	replyUs []float64   // due → "ok find <id>"
	lateUs  []float64   // due → actually written
	wrong   []string
	errs    []string
	finds   int64 // issued
	// counting window of the closed loop
	winFrom, winTo time.Time
	inWindow       atomic.Int64
	spans          *spanLog
	spanParent     int
	// release, in the closed loop, takes back the slot of every find that
	// ended, answered or refused; it is as deep as the slots are many.
	release chan struct{}
}

// findsBySecond cuts the find latencies into windows by the second of the
// phase, counted from start, in which each find was due.
func (s *phaseStats) findsBySecond(start time.Time) [][]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out [][]float64
	for i, v := range s.findUs {
		sec := int(s.findDue[i].Sub(start) / time.Second)
		if sec < 0 {
			continue
		}
		for len(out) <= sec {
			out = append(out, nil)
		}
		out[sec] = append(out[sec], v)
	}
	return out
}

func (s *phaseStats) late(d time.Duration) {
	s.mu.Lock()
	s.lateUs = append(s.lateUs, float64(d.Nanoseconds())/1e3)
	s.mu.Unlock()
}

// foundDone is the find table's completion callback.
func (s *phaseStats) foundDone(p *pending, f foundLine, at time.Time) {
	if s.release != nil {
		s.release <- struct{}{}
	}
	if !s.winFrom.IsZero() && !at.Before(s.winFrom) && at.Before(s.winTo) {
		s.inWindow.Add(1)
	}
	s.mu.Lock()
	if f.foundAt != p.expect || f.obj != p.obj {
		if len(s.wrong) < 20 {
			s.wrong = append(s.wrong, fmt.Sprintf("find %d for object %d answered at region %d (object %d), generator holds it at %d",
				f.id, p.obj, f.foundAt, f.obj, p.expect))
		} else {
			s.wrong = append(s.wrong, "")
		}
	} else {
		s.findUs = append(s.findUs, float64(at.Sub(p.due).Nanoseconds())/1e3)
		s.findDue = append(s.findDue, p.due)
	}
	s.mu.Unlock()
	if s.spans != nil {
		op := uint64(f.id)
		root := s.spans.add("find", p.due, at, s.spanParent, op)
		s.spans.add("loadgen.late", p.due, p.sent, root, op)
		s.spans.add("vinestalkd.track", p.sent, at, root, op)
	}
}

// onReply is the demuxes' reply callback for pipelined commands.
func (s *phaseStats) onReply(table *findTable, p *pending, ok bool, line []byte, at time.Time) {
	if p.reply != nil {
		return // a synchronous command; its caller has the line
	}
	if !ok {
		if p.find && s.release != nil {
			s.release <- struct{}{}
		}
		s.mu.Lock()
		if len(s.errs) < 20 {
			s.errs = append(s.errs, string(line))
		} else {
			s.errs = append(s.errs, "")
		}
		s.mu.Unlock()
		return
	}
	if !p.find {
		return // a placement of the set-up: its ok is all there is
	}
	id, err := parseFindID(line)
	s.mu.Lock()
	if err != nil {
		s.errs = append(s.errs, err.Error())
	} else {
		s.replyUs = append(s.replyUs, float64(at.Sub(p.due).Nanoseconds())/1e3)
	}
	s.mu.Unlock()
	if err == nil {
		table.issued(id, p)
	}
}

// runOpen sends the schedule over the connections, operation i on
// connection i mod len(conns), each from its own writer goroutine. It returns
// when every operation is written (or a connection failed or stop closed).
func runOpen(conns []*ctlConn, ops []schedOp, start time.Time, st *phaseStats, stop <-chan struct{}) error {
	errs := make(chan error, len(conns))
	for ci, c := range conns {
		go func(ci int, c *ctlConn) {
			var err error
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("loadgen: writer panicked: %v", r)
				}
				errs <- err
			}()
			var buf []byte
			for i := ci; i < len(ops); i += len(conns) {
				op := ops[i]
				due := start.Add(op.due)
				if d := time.Until(due); d > 0 {
					select {
					case <-time.After(d):
					case <-stop:
						return
					case <-c.done:
						err = fmt.Errorf("loadgen: connection closed mid-phase: %v", c.err)
						return
					}
				}
				now := time.Now()
				st.late(now.Sub(due))
				p := &pending{find: true, obj: op.obj, expect: op.expect, due: due, sent: now}
				buf = appendFind(buf[:0], op.origin, op.obj)
				if err = c.send(p, buf); err != nil {
					return
				}
				// Flush unless the next operation of this connection is
				// already due: a late generator catches up in one write.
				if next := i + len(conns); next >= len(ops) || time.Until(start.Add(ops[next].due)) > 0 {
					if err = c.flush(); err != nil {
						return
					}
				}
			}
			err = c.flush()
		}(ci, c)
	}
	var first error
	for range conns {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// satParams sizes phase sat.
type satParams struct {
	side    int
	objects int
	length  time.Duration
}

// runSat keeps as many finds in flight as st.release holds slots, for
// p.length: every completion hands its slot back and a writer reuses it at
// once. There are no moves, so pos is every find's expected answer.
func runSat(conns []*ctlConn, rng *rand.Rand, p satParams, pos []int32, st *phaseStats, stop <-chan struct{}) error {
	slots := st.release
	regions := p.side * p.side
	// Draw the targets up front: the writers share nothing but the slots.
	type target struct{ origin, obj int32 }
	draw := make([][]target, len(conns))
	const perConn = 1 << 16
	for ci := range draw {
		draw[ci] = make([]target, perConn)
		for i := range draw[ci] {
			draw[ci][i] = target{origin: int32(rng.Intn(regions)), obj: int32(1 + rng.Intn(p.objects))}
		}
	}
	end := time.Now().Add(p.length)
	errs := make(chan error, len(conns))
	for ci, c := range conns {
		go func(ci int, c *ctlConn) {
			var err error
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("loadgen: writer panicked: %v", r)
				}
				errs <- err
			}()
			timeout := time.NewTimer(time.Until(end))
			defer timeout.Stop()
			var buf []byte
			for n := 0; ; n++ {
				select {
				case <-slots:
				default:
					// No free slot: push out what is buffered, then wait.
					if err = c.flush(); err != nil {
						return
					}
					select {
					case <-slots:
					case <-timeout.C:
						return
					case <-stop:
						return
					case <-c.done:
						err = fmt.Errorf("loadgen: connection closed mid-phase: %v", c.err)
						return
					}
				}
				now := time.Now()
				if !now.Before(end) {
					err = c.flush()
					return
				}
				t := draw[ci][n%perConn]
				p := &pending{find: true, obj: t.obj, expect: pos[t.obj], due: now, sent: now}
				buf = appendFind(buf[:0], t.origin, t.obj)
				st.mu.Lock()
				st.finds++
				st.mu.Unlock()
				if err = c.send(p, buf); err != nil {
					return
				}
			}
		}(ci, c)
	}
	var first error
	for range conns {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}
