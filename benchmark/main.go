// Command benchmark is the one benchmark of the whole stack: it drives the
// public functions of every layer — kernel, sharded engine, V-bcast, geocast,
// C-gcast, Tracker, the oracle and parallel hosts, and the vinestalkd daemon
// — from outside, on four fixed workloads, and prices them end to end and
// layer by layer. BENCHMARK.json at the repository root names the command,
// the workloads and every metric; README.md in this directory is the
// glossary.
//
// Usage (from the repository root):
//
//	go run ./benchmark -workload walk64|fanout128k|fanout128k-k2|daemon8
//	                   [-seed 1] [-seconds N] [-trace 0|1|file] [-smoke]
//	                   [-out runs.jsonl]
//	go run ./benchmark -compare runsA.jsonl runsB.jsonl
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics of an untraced run,
// or with -trace the per-layer metrics of a second, traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload produces.
type result struct {
	Workload  string
	Seed      int64
	Correct   bool
	Attempted int64
	Failed    int64
	// E2E and Layer hold every metric measured, by name; which of the two
	// the final line prints depends on -trace.
	E2E   map[string]float64
	Layer map[string]float64
	// Exact are the seed-determined counts and digests: equal between two
	// runs of one commit with one seed, whatever the machine does.
	Exact map[string]string
	// Notes are printed for the reader: sample counts, the percentile
	// actually used, what a traced run replayed.
	Notes []string
	// Problems explain Correct == false.
	Problems []string
}

func newResult(workload string, seed int64) *result {
	return &result{Workload: workload, Seed: seed, Correct: true,
		E2E: map[string]float64{}, Layer: map[string]float64{}, Exact: map[string]string{}}
}

func (r *result) note(format string, a ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, a...))
}

// fail records a failed correctness check.
func (r *result) fail(format string, a ...any) {
	r.Correct = false
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, a...))
	}
}

// options are the knobs shared by every workload.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	smoke    bool
	root     string // module root
	buildDir string // build outputs and span files, inside the checkout
	spans    *spanLog
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
		seed     = fs.Int64("seed", 1, "input seed: the same seed generates the same workload")
		seconds  = fs.Float64("seconds", -1, "length of the timed phase (default: run_seconds of BENCHMARK.json)")
		traceArg = fs.String("trace", "0", "0 = untraced end-to-end run; 1 or a file name = traced per-layer run writing a span file")
		smoke    = fs.Bool("smoke", false, "tiny fixed-size scale of every workload, for tests")
		compare  = fs.Bool("compare", false, "compare two run files: -compare runsA.jsonl runsB.jsonl")
		out      = fs.String("out", "", "append this run as one JSON line to the file (input of -compare)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two run files")
			return 2
		}
		if err := compareRuns(os.Stdout, spec, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		return 0
	}

	o := options{workload: *workload, seed: *seed, seconds: *seconds, smoke: *smoke, root: root,
		buildDir: filepath.Join(root, ".bench_build")}
	if o.seconds < 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	if o.smoke {
		o.seconds = 0
	}
	switch *traceArg {
	case "0", "", "false":
	case "1", "true":
		o.trace = true
		o.traceOut = filepath.Join(o.buildDir, fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed))
	default:
		o.trace = true
		o.traceOut = *traceArg
	}
	if o.trace {
		o.spans = newSpanLog()
	}

	// SIGINT and SIGTERM end the run non-zero without a result. daemon8 has
	// a child to reap, so it unwinds through the same path as an error: the
	// phases see the stop channel close and the deferred clean-up kills the
	// daemon. The simulator workloads hold nothing and exit at once.
	stop := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		if o.workload != "daemon8" {
			fmt.Fprintln(os.Stderr, "benchmark: interrupted")
			os.Exit(130)
		}
		close(stop)
	}()

	var res *result
	switch o.workload {
	case "walk64":
		res, err = runWalk(o)
	case "fanout128k":
		res, err = runFanout(o, 0)
	case "fanout128k-k2":
		res, err = runFanout(o, 2)
	case "daemon8":
		res, err = runDaemon(o, stop)
	default:
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (one of %s)\n", o.workload, strings.Join(workloadNames, ", "))
		return 2
	}
	select {
	case <-stop:
		fmt.Fprintln(os.Stderr, "benchmark: interrupted")
		return 130
	default:
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if o.trace {
		meta := map[string]any{"workload": o.workload, "seed": o.seed, "smoke": o.smoke}
		if err := o.spans.write(o.traceOut, meta); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: writing span file:", err)
			return 1
		}
		res.note("span file: %s", o.traceOut)
	}
	if err := report(os.Stdout, res, o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	// Whoever reads only the error stream still learns why a run is incorrect.
	for _, p := range res.Problems {
		fmt.Fprintf(os.Stderr, "benchmark: %s seed %d INCORRECT: %s\n", res.Workload, res.Seed, p)
	}
	if *out != "" {
		if err := appendRun(*out, res, o); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	return 0
}

// finalLine is the contract's last line of standard output.
type finalLine struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// selected returns the metric set the final line carries: end-to-end for an
// untraced run, per-layer for a traced one. Every name of the set is
// present; a per-layer metric the workload has no use for reads 0.
func selected(res *result, trace bool) (map[string]value, error) {
	defs, vals := endToEnd, res.E2E
	if trace {
		defs, vals = perLayer, res.Layer
	}
	m := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok && !trace {
			return nil, fmt.Errorf("workload %s did not measure %s", res.Workload, d.Name)
		}
		m[d.Name] = value{Value: v, Unit: d.Unit}
	}
	for name := range vals {
		if _, ok := m[name]; !ok {
			return nil, fmt.Errorf("workload %s measured %s, which is not a declared metric", res.Workload, name)
		}
	}
	return m, nil
}

// report prints the human-readable table, then the one-line JSON result.
func report(w io.Writer, res *result, o options) error {
	fmt.Fprintf(w, "# workload %s seed %d seconds %g trace %v smoke %v  %s GOMAXPROCS=%d NumCPU=%d\n",
		res.Workload, res.Seed, o.seconds, o.trace, o.smoke, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	printSet := func(title string, defs []metricDef, vals map[string]float64) {
		if len(vals) == 0 {
			return
		}
		fmt.Fprintf(w, "# %s\n", title)
		for _, d := range defs {
			if v, ok := vals[d.Name]; ok {
				fmt.Fprintf(w, "#   %-34s %16.4f %s\n", d.Name, v, d.Unit)
			}
		}
	}
	printSet("end to end (host or wall time unless the name says sim)", endToEnd, res.E2E)
	printSet("per layer", perLayer, res.Layer)
	keys := make([]string, 0, len(res.Exact))
	for k := range res.Exact {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "# exact %s = %s\n", k, res.Exact[k])
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "# note: %s\n", n)
	}
	for _, p := range res.Problems {
		fmt.Fprintf(w, "# INCORRECT: %s\n", p)
	}
	m, err := selected(res, o.trace)
	if err != nil {
		return err
	}
	attempted := res.Attempted
	if attempted < 1 {
		attempted = 1
	}
	line, err := json.Marshal(finalLine{Correct: res.Correct, Attempted: attempted, Failed: res.Failed, Metrics: m})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
