package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"text/tabwriter"
)

// runRecord is one run as -out appends it: the final line's content plus
// what identifies the run. A run file is JSON lines, one record each.
type runRecord struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Trace      bool               `json:"trace"`
	Smoke      bool               `json:"smoke"`
	Seconds    float64            `json:"seconds"`
	Correct    bool               `json:"correct"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	Metrics    map[string]float64 `json:"metrics"`
	Exact      map[string]string  `json:"exact"`
	GoVersion  string             `json:"go_version"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	NumCPU     int                `json:"num_cpu"`
}

func appendRun(path string, res *result, o options) error {
	vals := res.E2E
	if o.trace {
		vals = res.Layer
	}
	rec := runRecord{Workload: res.Workload, Seed: res.Seed, Trace: o.trace, Smoke: o.smoke, Seconds: o.seconds,
		Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: vals, Exact: res.Exact,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRuns(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, n, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// verdict of one workload × metric pairing.
const (
	verdictWithin     = "within bound"
	verdictRegressed  = "REGRESSED"
	verdictImproved   = "improved"
	verdictUnresolved = "unresolved"
)

// judge compares side B (the change) against side A (the parent) for one
// metric. The medians decide; when the parent's own quartile spread exceeds
// the bound the pairing is unresolved, not unchanged — unless every run of B
// reads better than every run of A.
func judge(a, b []float64, better string, bound float64) (verdict string, worse float64, spread float64) {
	q1, medA, q3 := quartiles(a)
	_, medB, _ := quartiles(b)
	if medA != 0 {
		spread = (q3 - q1) / medA
		if spread < 0 {
			spread = -spread
		}
	}
	// worse > 0 means B is worse than A by that share of A's median.
	if medA != 0 {
		worse = (medB - medA) / medA
		if better == "higher" {
			worse = -worse
		}
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			if (better == "lower" && x >= y) || (better == "higher" && x <= y) {
				allBetter = false
			}
		}
	}
	switch {
	case spread > bound && !allBetter:
		return verdictUnresolved, worse, spread
	case worse > bound:
		return verdictRegressed, worse, spread
	case worse < -bound || (allBetter && worse < 0):
		return verdictImproved, worse, spread
	}
	return verdictWithin, worse, spread
}

// compareRuns prints, per workload, one row per end-to-end metric: median
// and quartiles of each side and the verdict against the metric's bound.
// Exact counts and digests must be identical on runs sharing a seed.
func compareRuns(w io.Writer, spec *benchSpec, pathA, pathB string) error {
	a, err := readRuns(pathA)
	if err != nil {
		return err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return err
	}
	collect := func(runs []runRecord, workload, metric string) []float64 {
		var out []float64
		for _, r := range runs {
			if r.Workload == workload && !r.Trace {
				if v, ok := r.Metrics[metric]; ok {
					out = append(out, v)
				}
			}
		}
		return out
	}
	regressed := 0
	for _, wl := range spec.Workloads {
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintf(w, "== %s\n", wl.Name)
		fmt.Fprintln(tw, "metric\tunit\tbound\tA q1\tA median\tA q3\tB q1\tB median\tB q3\tB worse by\tA spread\tverdict\t")
		any := false
		for _, m := range spec.EndToEnd {
			va, vb := collect(a, wl.Name, m.Name), collect(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			any = true
			aq1, am, aq3 := quartiles(va)
			bq1, bm, bq3 := quartiles(vb)
			v, worse, spread := judge(va, vb, m.Better, m.Bound)
			if v == verdictRegressed {
				regressed++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.0f%%\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%+.1f%%\t%.1f%%\t%s\t\n",
				m.Name, m.Unit, 100*m.Bound, aq1, am, aq3, bq1, bm, bq3, 100*worse, 100*spread, v)
		}
		tw.Flush()
		if !any {
			fmt.Fprintln(w, "   no untraced runs on both sides")
		}
		failed := func(runs []runRecord) (att, bad, wrong int64) {
			for _, r := range runs {
				if r.Workload == wl.Name {
					att += r.Attempted
					bad += r.Failed
					if !r.Correct {
						wrong++
					}
				}
			}
			return
		}
		aa, af, aw := failed(a)
		ba, bf, bw := failed(b)
		fmt.Fprintf(w, "   failed_share: A %d/%d (%d incorrect runs), B %d/%d (%d incorrect runs)\n", af, aa, aw, bf, ba, bw)
		// Exact results: per seed, every run of either side must agree.
		type key struct {
			seed  int64
			smoke bool
			name  string
		}
		seen := map[key]string{}
		var diffs []string
		for _, runs := range [][]runRecord{a, b} {
			for _, r := range runs {
				if r.Workload != wl.Name {
					continue
				}
				for name, v := range r.Exact {
					k := key{r.Seed, r.Smoke, name}
					if prev, ok := seen[k]; ok && prev != v {
						diffs = append(diffs, fmt.Sprintf("seed %d %s: %s vs %s", r.Seed, name, prev, v))
					}
					seen[k] = v
				}
			}
		}
		sort.Strings(diffs)
		if len(diffs) == 0 {
			fmt.Fprintf(w, "   exact counts and digests: identical across %d (seed, name) pairs\n", len(seen))
		}
		for _, d := range diffs {
			fmt.Fprintf(w, "   EXACT MISMATCH %s\n", d)
			regressed++
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d regressed or mismatching pairings", regressed)
	}
	return nil
}
