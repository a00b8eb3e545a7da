package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// selfCPU is the user+system CPU time this process has consumed.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// userHz is the kernel's clock-tick unit for /proc/<pid>/stat times. Linux
// fixes it at 100 for user space on every supported architecture.
const userHz = 100

// pidCPU is the user+system CPU time of another process, from
// /proc/<pid>/stat (fields 14 and 15, counted after the parenthesized
// command name, which may itself contain spaces).
func pidCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("procstat: malformed stat line for pid %d", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("procstat: short stat line for pid %d", pid)
	}
	ut, e1 := strconv.ParseInt(f[11], 10, 64)
	st, e2 := strconv.ParseInt(f[12], 10, 64)
	if e1 != nil || e2 != nil {
		return 0, fmt.Errorf("procstat: bad cpu fields for pid %d", pid)
	}
	return time.Duration(ut+st) * time.Second / userHz, nil
}

// peakRSSMB is the resident-set high-water mark (VmHWM) of a process in
// MiB; pid 0 means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			break
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("procstat: no VmHWM in %s", path)
}

// memCounters are the allocator counters a timed phase is bracketed with.
type memCounters struct {
	mallocs uint64
	bytes   uint64
}

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

func (m memCounters) sub(o memCounters) memCounters {
	return memCounters{mallocs: m.mallocs - o.mallocs, bytes: m.bytes - o.bytes}
}

// stolen is the time the hypervisor ran somebody else while a virtual CPU of
// this machine had work to do: the steal column of /proc/stat, summed over
// the CPUs. A kernel that does not report it reads 0.
func stolen() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	return stealOf(string(data))
}

// stealOf reads the steal column (the eighth number) of the first line of a
// /proc/stat text, the total over the CPUs.
func stealOf(stat string) time.Duration {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / userHz
}

// ran is what is left of a measured time d when st was stolen meanwhile. On
// this shared VM the stolen share of a run is 0–3 % in a quiet minute and
// 15–50 % in a busy one, and a host time that includes it measures the
// neighbours: six runs of walk64 within ten minutes took 351–544 ms per lap
// as the clock read and 331–348 ms less the steal (one lap in two stolen:
// 289). Lap time regressed on stolen time gave slopes of 0.6 to 1.2 over five
// sets of runs, so all of it is taken off. Process CPU time is corrected
// alike although the kernel does not charge a task for stolen time: a vCPU
// that was preempted comes back to cold caches, and the neighbour that stole
// it also loads the sibling hyperthread, so CPU per operation rises with the
// stolen share as well (walk64: 8.1 % → 4.9 % run to run; the fan-out
// workloads unchanged). At most half is taken off: the column counts every
// CPU, and time stolen from a thread nobody waited for delayed nothing.
func ran(d, st time.Duration) time.Duration {
	if st > d/2 {
		st = d / 2
	}
	if st < 0 {
		st = 0
	}
	return d - st
}

// meter accumulates the host time, process CPU and allocator activity of the
// timed sections only; the benchmark's own bookkeeping (digests, checks)
// happens between stop and the next start. host and cpu are net of stolen
// time (see ran); wall is what the clock read.
type meter struct {
	wall, host, cpu time.Duration
	mem             memCounters
	// share is the part of the last section the machine really ran,
	// host/wall of that section: per-operation samples taken inside it are
	// scaled by it.
	share float64

	t0     time.Time
	c0, s0 time.Duration
	m0     memCounters
}

func (m *meter) start() {
	m.m0 = readMem()
	m.s0 = machine.sample()
	m.c0 = selfCPU()
	m.t0 = time.Now()
}

func (m *meter) stop() {
	wall, cpu := time.Since(m.t0), selfCPU()-m.c0
	st := stolen() - m.s0
	host := ran(wall, st)
	m.wall += wall
	m.host += host
	m.cpu += ran(cpu, st)
	m.share = 1
	if wall > 0 {
		m.share = float64(host) / float64(wall)
	}
	d := readMem().sub(m.m0)
	m.mem.mallocs += d.mallocs
	m.mem.bytes += d.bytes
}

// scale multiplies the samples by f.
func scale(samples []float64, f float64) {
	for i := range samples {
		samples[i] *= f
	}
}
