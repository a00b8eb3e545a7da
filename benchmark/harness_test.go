package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// The percentile rule: a timing is its median plus the highest percentile
// that still has at least ten samples beyond it, and n is reported.
func TestPercentileRule(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{10, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if got := cappedTail(100000, 99); got != 99 {
		t.Errorf("a p99 metric must not report p%v", got)
	}
	if got := cappedTail(400, 99); got != 95 {
		t.Errorf("400 samples support p95, got p%v", got)
	}
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = float64(1000 - i) // unsorted on purpose
	}
	s := summarize(samples, 0)
	if s.N != 1000 || s.P50 != 500 || s.Mid != 500.5 || s.TailPct != 99 || s.Tail != 990 || s.Max != 1000 {
		t.Errorf("summarize = %+v", s)
	}
	// The midmean ignores the tails and moves smoothly between clusters,
	// where the median jumps from one to the other.
	clustered := func(low int) timing {
		v := make([]float64, 0, 100)
		for i := 0; i < 100; i++ {
			switch {
			case i == 99:
				v = append(v, 1e6) // one outlier
			case i < low:
				v = append(v, 19)
			default:
				v = append(v, 25)
			}
		}
		return summarize(v, 0)
	}
	a, b := clustered(49), clustered(51)
	if a.P50 != 25 || b.P50 != 19 {
		t.Errorf("medians %v, %v: the test wants a sample whose median jumps", a.P50, b.P50)
	}
	if d := a.Mid - b.Mid; d <= 0 || d > 0.5 || a.Mid > 25 {
		t.Errorf("midmeans %v, %v: want a small step and no trace of the outlier", a.Mid, b.Mid)
	}
	// exactly ten samples lie beyond the reported tail
	beyond := 0
	for _, v := range samples {
		if v > s.Tail {
			beyond++
		}
	}
	if beyond != 10 {
		t.Errorf("%d samples beyond the tail, want 10", beyond)
	}
	// The p95 of the median window ignores a window that a stall hit.
	windows := chunks(samples, 100) // 10 windows of 100; p90 is what 100 samples support
	if len(windows) != 10 || len(chunks(samples[:250], 100)) != 2 {
		t.Fatalf("chunks: %d windows", len(windows))
	}
	calm := windowTail(windows, 95)
	stalled := append([][]float64{}, windows...)
	hit := make([]float64, 100)
	for i := range hit {
		hit[i] = 1e6
	}
	stalled[3] = hit
	if got := windowTail(stalled, 95); got > calm*1.3 {
		t.Errorf("one stalled window of ten moved the window tail from %v to %v", calm, got)
	}
	all := append(append([]float64{}, samples...), hit...)
	if summarize(all, 95).Tail < 1e6 {
		t.Error("the test wants a stall that does move the p95 of all samples together")
	}
}

// quartiles must read what Python's statistics.quantiles(v, n=4) reads.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{7, 1, 3, 9, 5})
	if q1 != 2 || q2 != 5 || q3 != 8 {
		t.Errorf("quartiles(1,3,5,7,9) = %v %v %v, want 2 5 8", q1, q2, q3)
	}
}

// Stolen time: the steal column of /proc/stat's first line, in ticks of
// 10 ms, comes off a measured time, but never more than half of it.
func TestStolenTime(t *testing.T) {
	stat := "cpu  2295727 0 221416 3085939 7723 0 41929 43219 0 0\ncpu0 1134775 0 112129 1550951 5220 0 21158 21930 0 0\n"
	if got := stealOf(stat); got != 43219*10*time.Millisecond {
		t.Errorf("stealOf = %v, want 432.19s", got)
	}
	for _, bad := range []string{"", "cpu 1 2 3", "cpu0 1 2 3 4 5 6 7 8 9 10", "cpu 1 2 3 4 5 6 7 x 9 10"} {
		if got := stealOf(bad); got != 0 {
			t.Errorf("stealOf(%q) = %v, want 0", bad, got)
		}
	}
	for _, c := range []struct{ d, st, want time.Duration }{
		{time.Second, 0, time.Second},
		{time.Second, 250 * time.Millisecond, 750 * time.Millisecond},
		{time.Second, 900 * time.Millisecond, 500 * time.Millisecond},
		{time.Second, -10 * time.Millisecond, time.Second},
	} {
		if got := ran(c.d, c.st); got != c.want {
			t.Errorf("ran(%v, %v) = %v, want %v", c.d, c.st, got, c.want)
		}
	}
}

// The open-loop schedule: finds only, evenly spaced at the rate asked for, in
// due order, each expecting the generator's position of its object, and a
// function of the seed.
func TestOpenSchedule(t *testing.T) {
	pos := make([]int32, 2048+1)
	for id := range pos {
		pos[id] = int32(id % 64)
	}
	p := openParams{regions: 64, findRate: 2000, length: 20 * time.Second}
	ops := buildOpenSchedule(stream(3, "test"), p, pos)
	if len(ops) != 40000 {
		t.Fatalf("%d finds, want 40000", len(ops))
	}
	seen := map[int32]bool{}
	for i, op := range ops {
		if want := time.Duration(i)*500*time.Microsecond + 250*time.Microsecond; op.due != want {
			t.Fatalf("find %d due at %v, want %v", i, op.due, want)
		}
		if op.obj < 1 || int(op.obj) >= len(pos) || op.origin < 0 || op.origin >= 64 {
			t.Fatalf("find %d: object %d from region %d out of range", i, op.obj, op.origin)
		}
		if op.expect != pos[op.obj] {
			t.Fatalf("find %d expects object %d at %d, generator holds it at %d", i, op.obj, op.expect, pos[op.obj])
		}
		seen[op.obj] = true
	}
	if len(seen) < 2000 {
		t.Errorf("only %d of 2048 objects are ever looked for", len(seen))
	}
	again := buildOpenSchedule(stream(3, "test"), p, pos)
	if len(again) != len(ops) || again[len(again)/2] != ops[len(ops)/2] {
		t.Error("schedule is not a function of the seed")
	}
	if other := buildOpenSchedule(stream(4, "test"), p, pos); other[len(other)/2] == ops[len(ops)/2] {
		t.Error("another seed gives the same schedule")
	}
}

// The control-protocol demux: ok/err replies pop the connection's FIFO in
// order, found lines go to the handler whenever they arrive.
func TestDemux(t *testing.T) {
	var replies []string
	var founds []foundLine
	dm := &demux{
		onReply: func(p *pending, ok bool, line []byte, _ time.Time) {
			replies = append(replies, fmt.Sprintf("%d:%v:%s", p.obj, ok, line))
		},
		onFound: func(f foundLine, _ time.Time) { founds = append(founds, f) },
	}
	for i := int32(1); i <= 3; i++ {
		dm.push(&pending{obj: i, find: true})
	}
	now := time.Now()
	for _, l := range []string{"ok find 11", "found 11 5 2 9", "err region 7: region is down", "found 99 1 1 1", "ok find 12"} {
		if err := dm.line([]byte(l), now); err != nil {
			t.Fatalf("line %q: %v", l, err)
		}
	}
	want := []string{"1:true:ok find 11", "2:false:err region 7: region is down", "3:true:ok find 12"}
	if strings.Join(replies, "|") != strings.Join(want, "|") {
		t.Errorf("replies = %v, want %v", replies, want)
	}
	if len(founds) != 2 || founds[0] != (foundLine{11, 5, 2, 9}) || founds[1].id != 99 {
		t.Errorf("founds = %v", founds)
	}
	if dm.outstanding() != 0 {
		t.Errorf("%d commands still outstanding", dm.outstanding())
	}
	if err := dm.line([]byte("ok stray"), now); err == nil {
		t.Error("a reply with nothing outstanding must be an error")
	}
	if err := dm.line([]byte("found 1 2"), now); err == nil {
		t.Error("a short found line must be an error")
	}
	if err := dm.line([]byte("hello"), now); err == nil {
		t.Error("an unknown line must be an error")
	}

	// A found that overtakes its own "ok find" (it can, across connections)
	// is held until the id is known; a late found after expiry stays inert.
	var done []int64
	table := newFindTable(func(p *pending, f foundLine, _ time.Time) { done = append(done, f.id) })
	table.found(foundLine{id: 5}, now)
	if len(done) != 0 {
		t.Fatal("found matched before its find was issued")
	}
	table.issued(5, &pending{})
	table.issued(6, &pending{due: now.Add(-time.Hour)})
	table.found(foundLine{id: 6}, now)
	if len(done) != 2 || done[0] != 5 || done[1] != 6 {
		t.Errorf("done = %v", done)
	}
	table.issued(7, &pending{due: now.Add(-time.Hour)})
	if lost := table.expire(now); len(lost) != 1 || table.outstanding() != 0 {
		t.Errorf("expire returned %d, %d left", len(lost), table.outstanding())
	}
}

// fakeDaemon answers finds like vinestalkd does, and can be told to stop
// reading for a while.
type fakeDaemon struct {
	ln      net.Listener
	stallAt int // stall once, before handling this command number
	stall   time.Duration
	wg      sync.WaitGroup
}

func (f *fakeDaemon) serve(t *testing.T) {
	defer f.wg.Done()
	c, err := f.ln.Accept()
	if err != nil {
		return
	}
	defer c.Close()
	r := bufio.NewReader(c)
	var wmu sync.Mutex
	var pend sync.WaitGroup
	defer pend.Wait()
	for n := 1; ; n++ {
		line, err := r.ReadString('\n')
		if err != nil {
			return
		}
		if n == f.stallAt {
			time.Sleep(f.stall)
		}
		fields := strings.Fields(line)
		wmu.Lock()
		fmt.Fprintf(c, "ok find %d\n", n)
		wmu.Unlock()
		pend.Add(1)
		go func(n int, origin, obj string) {
			defer pend.Done()
			time.Sleep(5 * time.Millisecond)
			wmu.Lock()
			fmt.Fprintf(c, "found %d %s %s 3\n", n, obj, origin)
			wmu.Unlock()
		}(n, fields[1], fields[2])
	}
}

// The open loop must not omit what a stall delays: every find scheduled
// while the server stalls 500 ms is still sent on time and its latency,
// stamped from its due time, includes the wait. Lateness of the generator
// itself is reported per operation.
func TestOpenLoopCountsTheStall(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const rate, length = 500.0, 1500 * time.Millisecond
	fd := &fakeDaemon{ln: ln, stallAt: 200, stall: 500 * time.Millisecond}
	fd.wg.Add(1)
	go fd.serve(t)

	st := &phaseStats{}
	table := newFindTable(st.foundDone)
	dm := &demux{onFound: table.found}
	dm.onReply = func(p *pending, ok bool, line []byte, at time.Time) { st.onReply(table, p, ok, line, at) }
	c, err := dialCtl(ln.Addr().String(), dm)
	if err != nil {
		t.Fatal(err)
	}
	var ops []schedOp
	gap := time.Duration(float64(time.Second) / rate)
	for due := time.Duration(0); due < length; due += gap {
		ops = append(ops, schedOp{due: due, obj: 1, origin: 2, expect: 3})
	}
	start := time.Now().Add(10 * time.Millisecond)
	if err := runOpen([]*ctlConn{c}, ops, start, st, make(chan struct{})); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for table.outstanding() > 0 || dm.outstanding() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d finds still outstanding", table.outstanding())
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.close()
	fd.wg.Wait()

	if len(st.findUs) != len(ops) || len(st.wrong) != 0 {
		t.Fatalf("%d of %d finds answered correctly (%d wrong)", len(st.findUs), len(ops), len(st.wrong))
	}
	if len(st.lateUs) != len(ops) {
		t.Errorf("lateness reported for %d of %d operations", len(st.lateUs), len(ops))
	}
	sum := summarize(st.findUs, 99)
	if sum.Max < 450e3 {
		t.Errorf("max latency %.0f us does not include the 500 ms stall", sum.Max)
	}
	// The stall covers rate × 0.5 s = 250 scheduled finds; their latencies
	// fall from 500 ms to 0 as the schedule catches up. A generator that
	// waited for the server would show one slow find instead.
	slow := 0
	for _, v := range st.findUs {
		if v > 100e3 {
			slow++
		}
	}
	// The upper limit is loose: a busy test machine stretches the catch-up.
	if want := int(rate * 0.4); slow < want-40 || slow > want+250 {
		t.Errorf("%d finds saw more than 100 ms; an open loop puts about %d there", slow, want)
	}
	if late := summarize(st.lateUs, 99); late.Max > 200e3 {
		t.Errorf("generator ran %.0f us late: the stall must not block the sender", late.Max)
	}

	// A generator that does start late says so.
	st2 := &phaseStats{}
	ln2, _ := net.Listen("tcp", "127.0.0.1:0")
	defer ln2.Close()
	fd2 := &fakeDaemon{ln: ln2}
	fd2.wg.Add(1)
	go fd2.serve(t)
	table2 := newFindTable(st2.foundDone)
	dm2 := &demux{onFound: table2.found}
	dm2.onReply = func(p *pending, ok bool, line []byte, at time.Time) { st2.onReply(table2, p, ok, line, at) }
	c2, err := dialCtl(ln2.Addr().String(), dm2)
	if err != nil {
		t.Fatal(err)
	}
	if err := runOpen([]*ctlConn{c2}, ops[:20], time.Now().Add(-80*time.Millisecond), st2, make(chan struct{})); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); table2.outstanding() > 0 || dm2.outstanding() > 0; {
		if time.Now().After(deadline) {
			t.Fatal("finds outstanding")
		}
		time.Sleep(5 * time.Millisecond)
	}
	c2.close()
	fd2.wg.Wait()
	if late := summarize(st2.lateUs, 99); late.Max < 70e3 {
		t.Errorf("a generator 80 ms behind reported a maximum lateness of %.0f us", late.Max)
	}
	// every one of the 20 was due 42 to 80 ms before it could be sent
	for _, v := range st2.findUs {
		if v < 40e3 {
			t.Errorf("latency %.0f us is not stamped from the due time", v)
		}
	}
}

// Daemon lifecycle: the address comes from the "serving … on" line of a
// port-0 listener, start-up is bounded, a daemon that dies is reported with
// its stderr tail, and stop leaves no process behind.
func TestDaemonLifecycle(t *testing.T) {
	dir := t.TempDir()
	script := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte("#!/bin/sh\n"+body), 0o755); err != nil {
			t.Fatal(err)
		}
		return p
	}
	ok := script("ok.sh", "echo 'vinestalkd: serving 8x8 grid (r=2, 85 clusters, max level 3) on 127.0.0.1:43210'\nexec sleep 30\n")
	d, err := startDaemon(ok, nil, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if d.addr != "127.0.0.1:43210" {
		t.Errorf("addr = %q", d.addr)
	}
	pid := d.cmd.Process.Pid
	d.stop()
	if err := exec.Command("kill", "-0", fmt.Sprint(pid)).Run(); err == nil {
		t.Errorf("pid %d survived stop", pid)
	}

	dies := script("dies.sh", "echo 'listen tcp: address already in use' >&2\nexit 3\n")
	if _, err := startDaemon(dies, nil, 5*time.Second); err == nil || !strings.Contains(err.Error(), "address already in use") {
		t.Errorf("a daemon dying at start-up must be reported with its stderr, got %v", err)
	}

	silent := script("silent.sh", "exec sleep 30\n")
	t0 := time.Now()
	if _, err := startDaemon(silent, nil, 300*time.Millisecond); err == nil || !strings.Contains(err.Error(), "no serving address") {
		t.Errorf("start-up timeout not reported: %v", err)
	}
	if time.Since(t0) > 3*time.Second {
		t.Error("start-up timeout did not bound the wait")
	}

	midrun := script("midrun.sh", "echo 'vinestalkd: serving 4x4 grid on 127.0.0.1:1'\nsleep 0.2\necho 'panic: boom' >&2\nexit 2\n")
	d, err = startDaemon(midrun, nil, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.exited:
	case <-time.After(5 * time.Second):
		t.Fatal("exit not noticed")
	}
	if msg := d.died().Error(); !strings.Contains(msg, "panic: boom") || !strings.Contains(msg, "exit status 2") {
		t.Errorf("died() = %q", msg)
	}
	d.stop() // stopping a dead daemon is a no-op
}

// The comparison verdicts: regressed beyond the bound, within it, improved,
// and unresolved when the parent's own spread exceeds the bound.
func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100.5, 99.5}
	cases := []struct {
		name   string
		a, b   []float64
		better string
		bound  float64
		want   string
	}{
		{"same", base, []float64{100.2, 99.8, 100.1, 100, 99.9}, "lower", 0.10, verdictWithin},
		{"slower latency", base, []float64{115, 116, 114, 115, 117}, "lower", 0.10, verdictRegressed},
		{"faster latency", base, []float64{80, 81, 79, 80, 82}, "lower", 0.10, verdictImproved},
		{"lower throughput", base, []float64{85, 84, 86, 85, 85}, "higher", 0.10, verdictRegressed},
		{"higher throughput within", base, []float64{105, 104, 106, 105, 105}, "higher", 0.10, verdictImproved},
		{"noisy parent", []float64{60, 100, 140, 80, 120}, []float64{118, 119, 121, 120, 122}, "lower", 0.10, verdictUnresolved},
		{"noisy parent, every run better", []float64{60, 100, 140, 80, 120}, []float64{40, 41, 39, 42, 38}, "lower", 0.10, verdictImproved},
	}
	for _, c := range cases {
		got, worse, spread := judge(c.a, c.b, c.better, c.bound)
		if got != c.want {
			t.Errorf("%s: verdict %q (worse %.3f, spread %.3f), want %q", c.name, got, worse, spread, c.want)
		}
	}
	if _, worse, _ := judge(base, []float64{110, 110, 110}, "lower", 0.2); math.Abs(worse-0.10) > 0.01 {
		t.Errorf("worse = %v, want 0.10", worse)
	}
}

// compareRuns reads two run files and prints one row per workload × metric.
func TestCompareRuns(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, scale float64, digest string) string {
		p := filepath.Join(dir, name)
		for seed := int64(1); seed <= 5; seed++ {
			res := newResult("walk64", seed)
			res.Attempted = 100
			for _, d := range endToEnd {
				v := 100 + float64(seed)
				if d.Name == "find_midmean_us" {
					v *= scale
				}
				res.E2E[d.Name] = v
			}
			res.Exact["digest"] = digest
			if err := appendRun(p, res, options{seconds: 20}); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	a := write("a.jsonl", 1, "abc")
	same := write("same.jsonl", 1, "abc")
	slow := write("slow.jsonl", 1.5, "abc")
	drift := write("drift.jsonl", 1, "xyz")

	var out bytes.Buffer
	if err := compareRuns(&out, spec, a, same); err != nil {
		t.Errorf("identical sets: %v\n%s", err, out.String())
	}
	for _, d := range endToEnd {
		if !strings.Contains(out.String(), d.Name) {
			t.Errorf("no row for %s", d.Name)
		}
	}
	if !strings.Contains(out.String(), "identical across") {
		t.Errorf("exact agreement not reported:\n%s", out.String())
	}
	out.Reset()
	if err := compareRuns(&out, spec, a, slow); err == nil || !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("a 50%% slower find_midmean_us must be flagged: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareRuns(&out, spec, a, drift); err == nil || !strings.Contains(out.String(), "EXACT MISMATCH") {
		t.Errorf("a changed digest must be flagged: %v\n%s", err, out.String())
	}
}
