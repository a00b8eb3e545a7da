package main

import (
	"math"
	"sort"
)

// tailCandidates are the percentiles a timing may be reported at beyond its
// median, highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75}

// tailPercentile applies the reporting rule for timings: the highest
// candidate percentile that still has at least ten samples beyond it. With
// fewer than forty samples no tail is supported and the median stands in.
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 10000 × 0.1 % is ten, not 9.999…
			return p
		}
	}
	return 50
}

// cappedTail is tailPercentile limited to at most want: a metric named p99
// never reports a higher percentile, and falls back to the highest supported
// one when the sample is too small (smoke runs).
func cappedTail(n int, want float64) float64 {
	if p := tailPercentile(n); p < want {
		return p
	}
	return want
}

// quantileSorted is the nearest-rank quantile of an ascending slice.
func quantileSorted(sorted []float64, pct float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(pct/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// timing is a latency sample summarized by the reporting rule.
type timing struct {
	N       int
	Mid     float64 // midmean: the mean of the middle half of the samples
	P50     float64
	Tail    float64 // value at TailPct
	TailPct float64
	Max     float64
}

// summarize sorts a copy of the samples and reports the midmean, the median
// and the tail percentile, capped at want (0 = uncapped).
//
// The midmean (interquartile mean) is the end-to-end "typical find": like the
// median it ignores the tails (a garbage collection under one find in a
// hundred moves the mean of fanout128k by a third), and unlike the median it
// does not jump when the samples sit in a few clusters, as daemon8's wall
// latencies do — whole multiples of δ+e, half of them in the top cluster, so
// that the median flips between 19 and 25 units from one run to the next.
func summarize(samples []float64, want float64) timing {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	t := timing{N: len(s)}
	if len(s) == 0 {
		return t
	}
	t.TailPct = tailPercentile(len(s))
	if want > 0 {
		t.TailPct = cappedTail(len(s), want)
	}
	mid := s[len(s)/4 : len(s)-len(s)/4]
	for _, v := range mid {
		t.Mid += v
	}
	t.Mid /= float64(len(mid))
	t.P50 = quantileSorted(s, 50)
	t.Tail = quantileSorted(s, t.TailPct)
	t.Max = s[len(s)-1]
	return t
}

// windowTail is the pct-th percentile of the median window: the samples are
// cut in windows (a lap of a simulator workload, a second of daemon8's
// schedule), each window's percentile is taken, capped by the reporting rule
// at what the window's size supports, and the median over the windows is
// reported. A freeze of the VM or a collection cycle hits one window in five
// or ten; it moves the percentile of all samples taken together — daemon8's
// p95 over 24 000 finds read 383–403 ms in eight runs of ten and 669 and
// 1 290 ms in the two that a 0.3 s freeze had hit — and leaves the median
// window's alone.
func windowTail(windows [][]float64, pct float64) float64 {
	var tails []float64
	for _, w := range windows {
		if len(w) > 0 {
			tails = append(tails, summarize(w, pct).Tail)
		}
	}
	if len(tails) == 0 {
		return 0
	}
	return median(tails)
}

// chunks cuts samples into windows of n; a shorter remainder is dropped.
func chunks(samples []float64, n int) [][]float64 {
	var out [][]float64
	for ; n > 0 && len(samples) >= n; samples = samples[n:] {
		out = append(out, samples[:n])
	}
	return out
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(v, n=4) does (exclusive method), so -compare
// reads the same spread the acceptance rule is written in.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// median of a small set of repeated measurements (set-up times).
func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}
