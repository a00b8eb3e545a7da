package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vinestalk/internal/metrics"
)

// daemon8 is the only workload on the wall clock and the only one where the
// networked host's goroutines and wall timers, the wire codec, the service's
// ledger lock and the control server do the work: the real cmd/vinestalkd
// binary, driven over loopback TCP.

// daemonScale sizes the workload.
type daemonScale struct {
	side        int
	objects     int
	conns       int
	setups      int
	findRate    float64
	openShare   float64 // share of -seconds spent in phase open
	outstanding int     // finds kept in flight in phase sat
	ramp        time.Duration
	minOpen     time.Duration
	minSat      time.Duration
	findTimeout time.Duration
}

func daemonScaleFor(smoke bool) daemonScale {
	if smoke {
		return daemonScale{side: 4, objects: 64, conns: 2, setups: 1, findRate: 200,
			openShare: 0.6, outstanding: 256, ramp: 400 * time.Millisecond,
			minOpen: 2 * time.Second, minSat: 1200 * time.Millisecond, findTimeout: 5 * time.Second}
	}
	return daemonScale{side: 8, objects: 2048, conns: 2, setups: 5, findRate: 2000,
		openShare: 0.6, outstanding: 1024, ramp: time.Second,
		minOpen: 4 * time.Second, minSat: 3 * time.Second, findTimeout: 5 * time.Second}
}

// cascadeBound is 8·D·(δ+e), the paper's bound on a move or find, with
// D = side-1 on the 8-neighbour grid and the daemon's default δ = 10 ms,
// e = 5 ms: how long a placement's grow cascade may take.
func (sc daemonScale) cascadeBound() time.Duration {
	return time.Duration(8*(sc.side-1)) * 15 * time.Millisecond
}

// tailBuffer keeps the last bytes written to it: the daemon's stderr, shown
// when it dies.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 8192 {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-4096:]...)
	}
	t.mu.Unlock()
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// daemonProc is a running vinestalkd.
type daemonProc struct {
	cmd    *exec.Cmd
	addr   string
	stderr *tailBuffer
	exited chan struct{} // closed once Wait returned
	err    error         // Wait's result; read after exited
}

var servingLine = regexp.MustCompile(`serving .* on (\S+)$`)

// startDaemon execs the binary on port 0 and returns once it printed the
// address it serves on.
func startDaemon(bin string, args []string, timeout time.Duration) (*daemonProc, error) {
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	d := &daemonProc{cmd: cmd, stderr: &tailBuffer{}, exited: make(chan struct{})}
	cmd.Stderr = d.stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	addr := make(chan string, 1)
	scanned := make(chan struct{})
	go func() {
		defer close(scanned)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if m := servingLine.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
	}()
	go func() {
		<-scanned // Wait closes the pipe; let the scanner finish first
		d.err = cmd.Wait()
		close(d.exited)
	}()
	select {
	case d.addr = <-addr:
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("vinestalkd exited during start-up: %v\n%s", d.err, d.stderr)
	case <-time.After(timeout):
		d.stop()
		return nil, fmt.Errorf("vinestalkd printed no serving address within %v\n%s", timeout, d.stderr)
	}
}

// stop kills the daemon and waits until it is gone.
func (d *daemonProc) stop() {
	if d == nil {
		return
	}
	_ = d.cmd.Process.Kill()
	<-d.exited
}

// died describes an unexpected exit, with the stderr tail.
func (d *daemonProc) died() error {
	return fmt.Errorf("vinestalkd died mid-run: %v; stderr tail:\n%s", d.err, d.stderr)
}

// buildDaemon compiles cmd/vinestalkd into the build directory of the
// checkout. The build is not part of setup_s.
func buildDaemon(o options) (string, error) {
	if err := os.MkdirAll(o.buildDir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(o.buildDir, "vinestalkd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/vinestalkd")
	cmd.Dir = o.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/vinestalkd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemonWorld is a started, populated daemon with its control connections.
type daemonWorld struct {
	proc  *daemonProc
	conns []*ctlConn
	table *findTable
	pos   []int32 // by object id; [0] unused
	cur   atomic.Pointer[phaseStats]
}

func (w *daemonWorld) close() {
	if w == nil {
		return
	}
	for _, c := range w.conns {
		c.conn.Close()
	}
	w.proc.stop()
	for _, c := range w.conns {
		<-c.done
	}
}

// connErr reports why the run cannot go on: the daemon exited, or a
// connection's reader failed.
func (w *daemonWorld) connErr() error {
	select {
	case <-w.proc.exited:
		return w.proc.died()
	default:
	}
	for _, c := range w.conns {
		select {
		case <-c.done:
			// The daemon may be a moment from being reaped.
			select {
			case <-w.proc.exited:
				return w.proc.died()
			case <-time.After(200 * time.Millisecond):
			}
			return fmt.Errorf("control connection failed: %v", c.err)
		default:
		}
	}
	return nil
}

// errProbe marks a set-up whose probe finds stayed unanswered: the probe
// object's first cascade was caught by a stall and left it stranded. The
// set-up is thrown away and repeated.
var errProbe = errors.New("probe find unanswered")

// setupDaemon is one set-up: exec, connect, place every object at a seeded
// region, and probe until a find on the last placed object is answered.
func setupDaemon(bin string, sc daemonScale, seed int64, spans *spanLog, parent int) (w *daemonWorld, took time.Duration, err error) {
	t0 := time.Now()
	sp := spans.begin("vinestalkd.exec", parent, 0)
	proc, err := startDaemon(bin, []string{"-side", fmt.Sprint(sc.side), "-listen", "127.0.0.1:0",
		"-transport", "chan", "-heartbeat", "0"}, 10*time.Second)
	spans.end(sp)
	if err != nil {
		return nil, 0, err
	}
	w = &daemonWorld{proc: proc, pos: make([]int32, sc.objects+1)}
	defer func() {
		if err != nil {
			w.close()
			w = nil
		}
	}()
	st := &phaseStats{}
	w.cur.Store(st)
	w.table = newFindTable(func(p *pending, f foundLine, at time.Time) { w.cur.Load().foundDone(p, f, at) })
	sp = spans.begin("ctl.connect", parent, 0)
	for i := 0; i < sc.conns; i++ {
		dm := &demux{onReply: func(p *pending, ok bool, line []byte, at time.Time) {
			w.cur.Load().onReply(w.table, p, ok, line, at)
		}}
		if i == 0 {
			dm.onFound = w.table.found
		}
		c, err := dialCtl(proc.addr, dm)
		if err != nil {
			return w, 0, err
		}
		w.conns = append(w.conns, c)
	}
	spans.end(sp)

	sp = spans.begin("ctl.place", parent, 0)
	rng := stream(seed, "daemon8/starts")
	regions := sc.side * sc.side
	for id := 1; id <= sc.objects; id++ {
		at := int32(rng.Intn(regions))
		if id == sc.objects {
			// The probe target sits in the middle of the grid whatever the
			// seed, so the probe find from region 0 always travels the same
			// distance and setup_s does not depend on where the seed put it.
			// (Not the far corner: see README.md, observations.)
			at = int32(sc.side*(sc.side/2) + sc.side/2)
		}
		w.pos[id] = at
		c := w.conns[id%len(w.conns)]
		p := &pending{due: time.Now()}
		if err := c.send(p, []byte(fmt.Sprintf("place %d %d\n", id, at))); err != nil {
			return w, 0, err
		}
	}
	for _, c := range w.conns {
		if err := c.flush(); err != nil {
			return w, 0, err
		}
	}
	spans.end(sp)

	// Probe: a find on the last placed object. The find waits on its way for
	// the object's first grow cascade, so one is enough; it is re-issued only
	// after the cascade's bound, in case it raced the cascade and was lost
	// (legitimate with heartbeats off). Not sooner: a find that meets a
	// waiting find for the same object restarts the wait of both, so probing
	// every few milliseconds is answered only once the probing stops.
	sp = spans.begin("probe", parent, 0)
	last := int32(sc.objects)
	bound := sc.cascadeBound()
	deadline := time.Now().Add(bound + sc.findTimeout)
	answered := func() bool {
		st.mu.Lock()
		defer st.mu.Unlock()
		return len(st.findUs) > 0
	}
	for !answered() {
		if err := w.connErr(); err != nil {
			return w, 0, err
		}
		if time.Now().After(deadline) {
			return w, 0, fmt.Errorf("%w: object %d, %v\n%s", errProbe, last, bound+sc.findTimeout, proc.stderr)
		}
		now := time.Now()
		p := &pending{find: true, obj: last, expect: w.pos[last], due: now, sent: now}
		c := w.conns[0]
		if err := c.send(p, appendFind(nil, 0, last)); err != nil {
			return w, 0, err
		}
		if err := c.flush(); err != nil {
			return w, 0, err
		}
		for wait := time.Now().Add(bound); !answered() && time.Now().Before(wait); {
			time.Sleep(2 * time.Millisecond)
		}
	}
	spans.end(sp)
	took = time.Since(t0)
	if n := len(st.errs); n > 0 {
		return w, 0, fmt.Errorf("%d placements refused, first: %s", n, st.errs[0])
	}
	return w, took, nil
}

// stats fetches and parses the daemon's ledger.
func (w *daemonWorld) stats() (*metrics.Export, error) {
	line, err := w.conns[0].call("stats", 10*time.Second)
	if err != nil {
		return nil, err
	}
	const pre = "ok stats "
	if !strings.HasPrefix(line, pre) {
		return nil, fmt.Errorf("stats answered %.80q", line)
	}
	var e metrics.Export
	if err := json.Unmarshal([]byte(line[len(pre):]), &e); err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	return &e, nil
}

// netTotals sums the networked host's frame accounting over "net/" kinds.
type netTotals struct {
	sent, work, delivered, drops int64
}

func totalsOf(e *metrics.Export) netTotals {
	var t netTotals
	for k, v := range e.MsgCount {
		if strings.HasPrefix(k, "net/") {
			t.sent += v
		}
	}
	for k, v := range e.HopWork {
		if strings.HasPrefix(k, "net/") {
			t.work += v
		}
	}
	for k, v := range e.Delivered {
		if strings.HasPrefix(k, "net/") {
			t.delivered += v
		}
	}
	for k, m := range e.Drops {
		if strings.HasPrefix(k, "net/") {
			for _, v := range m {
				t.drops += v
			}
		}
	}
	return t
}

// drain waits until no find is outstanding, failing those older than the
// find timeout, and until every command has its reply.
func (w *daemonWorld) drain(st *phaseStats, timeout time.Duration, stop <-chan struct{}) (expired []*pending, err error) {
	for {
		if err := w.connErr(); err != nil {
			return expired, err
		}
		select {
		case <-stop:
			return expired, errors.New("interrupted")
		default:
		}
		lost := w.table.expire(time.Now().Add(-timeout))
		expired = append(expired, lost...)
		if st.release != nil {
			for range lost {
				st.release <- struct{}{}
			}
		}
		busy := w.table.outstanding()
		for _, c := range w.conns {
			busy += c.dm.outstanding()
		}
		if busy == 0 {
			return expired, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// quiesce polls the daemon's ledger until every frame sent has been
// delivered or dropped (held frames have run out), and returns the last
// reading.
func (w *daemonWorld) quiesce(limit time.Duration) (*metrics.Export, netTotals, error) {
	deadline := time.Now().Add(limit)
	for {
		e, err := w.stats()
		if err != nil {
			return nil, netTotals{}, err
		}
		t := totalsOf(e)
		if t.sent == t.delivered+t.drops || time.Now().After(deadline) {
			return e, t, nil
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// stallWatch is the generator's own health check: a goroutine that sleeps a
// millisecond at a time and remembers the longest it overslept, reported as
// loadgen.stall_max_ms. When the machine takes the CPU away, it takes it from
// the daemon too, and the daemon's wall timers fire late: a long stall beside
// a high latency says the machine was slow, not the daemon.
type stallWatch struct {
	max  atomic.Int64 // ns
	quit chan struct{}
	done chan struct{}
}

func startStallWatch() *stallWatch {
	s := &stallWatch{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		last := time.Now()
		for {
			select {
			case <-s.quit:
				return
			default:
			}
			time.Sleep(time.Millisecond)
			now := time.Now()
			if over := int64(now.Sub(last) - time.Millisecond); over > s.max.Load() {
				s.max.Store(over)
			}
			last = now
		}
	}()
	return s
}

func (s *stallWatch) stop() time.Duration {
	close(s.quit)
	<-s.done
	return time.Duration(s.max.Load())
}

// lateLimit is the generator lateness (p99 of phase open) above which the
// run's note says the generator, not the daemon, was slow.
const lateLimit = 10 * time.Millisecond

func runDaemon(o options, stop <-chan struct{}) (*result, error) {
	sc := daemonScaleFor(o.smoke)
	root := o.spans.begin("run", -1, 0)
	defer o.spans.end(root)
	bin, err := buildDaemon(o)
	if err != nil {
		return nil, err
	}
	watch := startStallWatch()
	res, late, err := daemonRun(o, sc, bin, root, stop)
	stall := watch.stop()
	if err != nil {
		return nil, err
	}
	res.Layer["loadgen.stall_max_ms"] = float64(stall) / 1e6
	if late > lateLimit {
		res.note("generator fell behind its schedule: lateness p99 %v (limit %v), longest stall %v; the latencies of this run are the machine's, not the daemon's", late, lateLimit, stall)
	}
	return res, nil
}

// daemonRun is the workload: set-ups, both phases, checks. It returns the
// generator's lateness p99 of phase open.
func daemonRun(o options, sc daemonScale, bin string, root int, stop <-chan struct{}) (res *result, lateP99 time.Duration, err error) {
	res = newResult("daemon8", o.seed)

	// Whatever happens from here on — an error, a panic in this goroutine,
	// SIGINT — the daemon is killed and reaped before the function returns.
	var w *daemonWorld
	defer func() {
		w.close()
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("daemon8 panicked: %v", r)
		}
	}()

	var setups []float64
	for spoiled := 0; len(setups) < sc.setups; {
		w.close()
		w = nil
		sp := o.spans.begin("setup", root, 0)
		var took time.Duration
		w, took, err = setupDaemon(bin, sc, o.seed, o.spans, sp)
		o.spans.end(sp)
		if errors.Is(err, errProbe) && spoiled < 3 {
			spoiled++
			res.note("set-up discarded: %v", strings.SplitN(err.Error(), "\n", 2)[0])
			continue
		}
		if err != nil {
			return nil, 0, err
		}
		setups = append(setups, took.Seconds())
		select {
		case <-stop:
			return nil, 0, errors.New("interrupted")
		default:
		}
	}
	pid := w.proc.cmd.Process.Pid
	placed := int64(sc.objects)

	// Let every placement's grow cascade run out before the clocked phases.
	// Probe finds still unanswered by then are dropped, not counted.
	bound := sc.cascadeBound()
	time.Sleep(bound)
	w.table.expire(time.Now())
	if _, err := w.drain(w.cur.Load(), sc.findTimeout, stop); err != nil {
		return nil, 0, err
	}

	// The pace of the machine (pace.go) is probed whenever the daemon is at
	// rest: here, between the phases and after them. Beside the busy daemon
	// the probe would read its own interference with it. The first pass
	// brings the probe's slice back into the cache and is not timed.
	probe := func() {
		machine.pass()
		for i := 0; i < 8; i++ {
			machine.sample()
		}
	}
	probe()

	// Idle control-plane round trip.
	var idleRTT []float64
	for i := 0; i < 200; i++ {
		t := time.Now()
		if _, err := w.conns[i%len(w.conns)].call("alive 0", 5*time.Second); err != nil {
			return nil, 0, err
		}
		idleRTT = append(idleRTT, float64(time.Since(t).Nanoseconds())/1e3)
	}

	total := time.Duration(o.seconds * float64(time.Second))
	openLen := time.Duration(float64(total) * sc.openShare)
	if openLen < sc.minOpen {
		openLen = sc.minOpen
	}
	satLen := total - openLen
	if satLen < sc.minSat {
		satLen = sc.minSat
	}

	// ---- phase open ----
	ops := buildOpenSchedule(stream(o.seed, "daemon8/open"),
		openParams{regions: sc.side * sc.side, findRate: sc.findRate, length: openLen}, w.pos)
	open := &phaseStats{spans: o.spans, finds: int64(len(ops))}
	stats0, err := w.stats()
	if err != nil {
		return nil, 0, err
	}
	open.spanParent = o.spans.begin("phase.open", root, 0)
	w.cur.Store(open)
	genCPU0 := selfCPU()
	cpu0, err := pidCPU(pid)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now().Add(20 * time.Millisecond)
	if err := runOpen(w.conns, ops, start, open, stop); err != nil {
		if derr := w.connErr(); derr != nil {
			err = derr
		}
		return nil, 0, err
	}
	openWall := time.Since(start)
	cpu1, err := pidCPU(pid)
	if err != nil {
		return nil, 0, w.proc.died()
	}
	openExpired, err := w.drain(open, sc.findTimeout, stop)
	if err != nil {
		return nil, 0, err
	}
	o.spans.end(open.spanParent)
	// Found broadcasts to the neighbours of an answered find's region are
	// still held; wait them out so the ledger delta of the phase is whole.
	stats1, tot1, err := w.quiesce(bound + 2*time.Second)
	if err != nil {
		return nil, 0, err
	}

	// Peak memory is read here, after set-up and the fixed schedule of phase
	// open: how many finds the closed loop of phase sat gets through, and so
	// how far the daemon's per-find tables grow, differs from run to run.
	rss, err := peakRSSMB(pid)
	if err != nil {
		return nil, 0, w.proc.died()
	}
	probe()

	// ---- phase sat ----
	sat := &phaseStats{release: make(chan struct{}, sc.outstanding)}
	for i := 0; i < sc.outstanding; i++ {
		sat.release <- struct{}{}
	}
	satParam := satParams{side: sc.side, objects: sc.objects, length: satLen}
	satStart := time.Now()
	sat.winFrom, sat.winTo = satStart.Add(sc.ramp), satStart.Add(satLen)
	w.cur.Store(sat)
	satSpan := o.spans.begin("phase.sat", root, 0)
	var satCPU0, satCPU1, satStolen time.Duration
	cpuErr := make(chan error, 1)
	go func() {
		// Daemon CPU over exactly the counting window.
		time.Sleep(time.Until(sat.winFrom))
		var e1, e2 error
		satStolen = stolen()
		satCPU0, e1 = pidCPU(pid)
		time.Sleep(time.Until(sat.winTo))
		satCPU1, e2 = pidCPU(pid)
		satStolen = stolen() - satStolen
		if e1 == nil {
			e1 = e2
		}
		cpuErr <- e1
	}()
	if err := runSat(w.conns, stream(o.seed, "daemon8/sat"), satParam, w.pos, sat, stop); err != nil {
		if derr := w.connErr(); derr != nil {
			err = derr
		}
		return nil, 0, err
	}
	if err := <-cpuErr; err != nil {
		return nil, 0, w.proc.died()
	}
	satExpired, err := w.drain(sat, sc.findTimeout, stop)
	if err != nil {
		return nil, 0, err
	}
	o.spans.end(satSpan)
	genCPU := selfCPU() - genCPU0
	_, tot2, err := w.quiesce(bound + 2*time.Second)
	if err != nil {
		return nil, 0, err
	}
	probe()
	pace := machine.pace("daemon8")

	// ---- checks and metrics ----
	fail := func(st *phaseStats, phase string, expired []*pending) int64 {
		for _, m := range st.wrong {
			if m != "" {
				res.fail("%s: %s", phase, m)
			}
		}
		for _, m := range st.errs {
			if m != "" {
				res.fail("%s: daemon refused a command: %s", phase, m)
			}
		}
		if len(expired) > 0 {
			objs := map[int32]int{}
			for _, p := range expired {
				objs[p.obj]++
			}
			res.fail("%s: %d finds unanswered after %v, on objects (finds lost each) %v", phase, len(expired), sc.findTimeout, objs)
		}
		return int64(len(st.wrong) + len(st.errs) + len(expired))
	}
	res.Attempted = placed + open.finds + sat.finds
	res.Failed = fail(open, "open", openExpired) + fail(sat, "sat", satExpired)
	gap := tot2.sent - tot2.delivered - tot2.drops
	if gap != 0 {
		res.fail("conservation: sent %d != delivered %d + drops %d after drain", tot2.sent, tot2.delivered, tot2.drops)
	}

	find := summarize(open.findUs, 95)
	find99 := summarize(open.findUs, 99)
	late := summarize(open.lateUs, 99)
	reply := summarize(open.replyUs, 99)
	idle := summarize(idleRTT, 99)
	window := sat.winTo.Sub(sat.winFrom).Seconds()
	satFinds := float64(sat.inWindow.Load())
	tot0 := totalsOf(stats0)
	openOps := float64(open.finds)

	E := res.E2E
	E["setup_s"] = median(setups)
	E["ops_per_s"] = per(satFinds, window)
	E["find_midmean_us"] = find.Mid
	E["find_p95_us"] = windowTail(open.findsBySecond(start), 95)
	E["cpu_us_per_op"] = per(float64((satCPU1-satCPU0).Microseconds())/pace, satFinds)
	E["peak_rss_mb"] = rss
	E["hopwork_per_op"] = per(float64(tot1.work-tot0.work), openOps)

	L := res.Layer
	L["vinestalkd.find_wall_p50_ms"] = find.P50 / 1e3
	L["vinestalkd.find_wall_p99_ms"] = find99.Tail / 1e3
	L["vinestalkd.sat_finds_per_s"] = per(satFinds, window)
	L["vinestalkd.ctl_rtt_us_p50"] = idle.P50
	L["vinestalkd.ctl_rtt_loaded_us_p99"] = reply.Tail
	L["vinestalkd.cpu_util_open"] = per((cpu1 - cpu0).Seconds(), openWall.Seconds())
	L["vinestalkd.cpu_us_per_op_open"] = per(float64((cpu1 - cpu0).Microseconds()), openOps)
	L["nethost.frames_per_find"] = per(float64(tot2.sent-tot1.sent), float64(sat.finds))
	L["nethost.drops"] = float64(tot2.drops)
	L["nethost.conservation_gap"] = float64(gap)
	if h := stats1.Latency["net/find"]; h != nil {
		L["nethost.find_ledger_p99_ms"] = float64(h.Quantile(0.99)) / 1e6
	}
	L["host.stolen_pct"] = 100 * per(satStolen.Seconds(), window)
	L["host.pace"] = pace
	L["loadgen.late_p99_ms"] = late.Tail / 1e3
	L["loadgen.late_max_ms"] = late.Max / 1e3
	L["loadgen.cpu_s"] = genCPU.Seconds()

	res.Exact["open_ops"] = fmt.Sprint(open.finds)
	res.note("phase open: %.1f s open loop, %d finds (%.0f/s), wall latency due→found n=%d midmean %.1f ms p50 %.1f ms p%g %.1f ms p%g %.1f ms max %.1f ms; bound 8·D·(δ+e) = %v",
		openLen.Seconds(), open.finds, sc.findRate, find.N, find.Mid/1e3, find.P50/1e3, find.TailPct, find.Tail/1e3,
		find99.TailPct, find99.Tail/1e3, find.Max/1e3, bound)
	res.note("find_p95_us is the p95 of the median second of phase open (%.0f finds due in each)", sc.findRate)
	res.note("phase sat: %.1f s closed loop, %d outstanding, %.0f finds answered in the %.1f s counting window (ramp %v excluded)",
		satLen.Seconds(), sc.outstanding, satFinds, window, sc.ramp)
	res.note("generator: lateness n=%d p%g %.3f ms max %.3f ms, cpu %.2f s", late.N, late.TailPct, late.Tail/1e3, late.Max/1e3, genCPU.Seconds())
	res.note("setup_s is the median of %d set-ups (exec → probe find answered; go build excluded): %v", len(setups), setups)
	res.note("latencies and rates are wall time as the clock read it (%.1f %% of the counting window was stolen from this VM); cpu_us_per_op is the daemon's %.1f us at pace %.3f (probe %.2f ms, n=%d, %d spoiled); hopwork_per_op is the daemon ledger's net/ hop work over phase open ÷ its finds",
		L["host.stolen_pct"], per(float64((satCPU1-satCPU0).Microseconds()), satFinds), pace, 1e3*median(machine.samples), len(machine.samples), machine.spoiled)
	if o.trace {
		if err := nethostMicro(res); err != nil {
			return nil, 0, err
		}
		res.Layer["tracker.wire_ns_per_msg"] = wireCost()
	}
	return res, time.Duration(late.Tail * 1e3), nil
}
