package main

import (
	"math"
	"time"
)

// The pace of the machine. This VM shares its last-level cache and its memory
// bus with neighbours it cannot see, and every workload here chases pointers
// through hundreds of megabytes: within one hour, with nothing stolen, walk64
// ran at 8 700 and at 5 700 ops/s, and all four workloads drifted together
// over tens of minutes. A dependent multiply chain stayed within 1 % through
// all of it and loads from a 16 KB table within 2 %, so it is neither the
// clock rate nor the core. Binary searches in 8 MB moved by 5 % and tracked
// the workloads (correlation 0.76–0.93 over 66 runs in 25 minutes); pointer
// chases in 4–64 MB tracked them less well, allocation and map writes only
// walk64.
//
// So the benchmark times that probe beside the work — one pass before every
// timed section, 7 ms before 300 or more; on daemon8 a few passes whenever the
// daemon is at rest — and reports the host times of a run in the seconds of a
// machine on which a pass takes its nominal time. Every workload slows down by
// more than the probe does, each by its own measure (paceExponent). Run to
// run, with the machine's pace between 1.02 and 1.40 (20 runs each, ten seeds,
// the workloads alternating), that took the deviation of walk64's ops_per_s
// from 13.9 % to 3.4 %, of fanout128k's from 8.9 to 3.8 and of
// fanout128k-k2's from 11.7 to 3.9. The probe is made of nothing but a slice
// and a loop, so no change to the repository moves it.

const (
	probeSize    = 1 << 20 // sorted int64s: 8 MB
	probeLookups = 30_000
	// probeNominal is what one pass took on the baseline machine, the median
	// of 1 483 passes within 25 minutes (quartiles 7.1 and 8.0 ms).
	probeNominal = 7400 * time.Microsecond
)

// paceExponent is by how much more than the probe a workload slows down: the
// slope of log(host time per operation) over log(time per pass), fitted over
// 20 runs of each simulator workload (ops_per_s 1.95, 1.14, 1.41;
// find_midmean_us 1.74, 1.06, 1.51; cpu_us_per_op 1.94, 1.10, 1.12) and set a
// little below the fit: a run corrected too little still reads slow on a slow
// machine, one corrected too much reads fast on it. daemon8's is for the
// daemon's CPU time per find alone, its other times being the wall clock's.
// That time was 176–216 us in ten runs beside simulator runs whose probe
// read 3 % over nominal and 230–269 us in eight beside runs that read
// 10–30 % over, which is an exponent of about 1.5; but the daemon is probed
// only at three moments of rest, the pace of a noisy hour changes within
// seconds, and over 13 runs in such an hour the fitted slope was 0.5 (the
// deviation 5.4 % uncorrected, 4.8 % at 0.5, 5.3 % at 1, 6.6 % at 1.5). At 1
// a calm hour loses nothing and a neighbour's ten minutes lose most of their
// effect.
var paceExponent = map[string]float64{
	"walk64":        1.8,
	"fanout128k":    1.1,
	"fanout128k-k2": 1.3,
	"daemon8":       1,
}

// pacer times the probe and keeps the samples of one run.
type pacer struct {
	sorted  []int64
	x       uint64
	sink    int
	samples []float64 // seconds per pass; passes during which time was stolen are left out
	spoiled int
}

// machine is the pacer of this process; a run is one process.
var machine = newPacer()

func newPacer() *pacer {
	p := &pacer{sorted: make([]int64, probeSize), x: 0x9E3779B97F4A7C15}
	// Keys are drawn from [0, 4·probeSize): a quarter of the searches run
	// off the end along one cached path, the rest spread over the slice.
	for i := range p.sorted {
		p.sorted[i] = int64(i) * 3
	}
	return p
}

// pass is one pass of the probe: binary searches for pseudo-random keys. The
// upper levels of each search stay in the core's own caches; the lower ten
// touch lines all over the 8 MB, which is what the neighbours evict.
func (p *pacer) pass() time.Duration {
	t := time.Now()
	x, acc := p.x, 0
	for i := 0; i < probeLookups; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		key := int64(x >> 42)
		lo, hi := 0, len(p.sorted)
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if p.sorted[m] < key {
				lo = m + 1
			} else {
				hi = m
			}
		}
		acc += lo
	}
	p.x, p.sink = x, p.sink+acc
	return time.Since(t)
}

// sample times one pass and returns the stolen-time reading taken after it,
// which the caller's own section starts from.
func (p *pacer) sample() (stolenAfter time.Duration) {
	s0 := stolen()
	d := p.pass()
	s1 := stolen()
	if s1 != s0 {
		p.spoiled++
		return s1
	}
	p.samples = append(p.samples, d.Seconds())
	return s1
}

// pace is how much slower than the nominal machine this run's machine was,
// for the workload: 1.2 means a host time of 1.2 s is reported as 1 s. With
// no usable sample it is 1.
func (p *pacer) pace(workload string) float64 {
	if len(p.samples) == 0 {
		return 1
	}
	return math.Pow(median(p.samples)/probeNominal.Seconds(), paceExponent[workload])
}
