// Command experiments regenerates every experiment table of the
// reproduction (DESIGN.md §3): the grid-geometry example of §II-B, the
// find/move cost bounds of Theorems 5.2 and 4.9, the dithering comparison,
// the baseline comparison, the Theorem 4.8 runtime verification, the §VI
// concurrency sweep, the §VII failure-recovery and extension
// demonstrations, and the design-choice ablations.
//
// Usage:
//
//	experiments [-quick] [-only E1,E4] [-csv results] [-json results]
//	            [-parallel N] [-chaos-seed S]
//	            [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// Experiments and their sweep cells run on -parallel workers (default
// GOMAXPROCS); the rendered tables are byte-identical at any worker count.
// With -json, each result is also written as <dir>/<ID>.json — the table,
// the shape-check outcomes, and the per-cell ledger exports (message and
// work counters, delivery and drop-cause counters, latency histograms).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"vinestalk/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced grid sizes and repetition counts")
	only := flag.String("only", "", "comma-separated experiment ids to run (default: all)")
	csvDir := flag.String("csv", "", "also write each table as <dir>/<ID>.csv")
	jsonDir := flag.String("json", "", "also write each result (table, checks, ledgers) as <dir>/<ID>.json")
	parallel := flag.Int("parallel", 0, "sweep worker count (0 = GOMAXPROCS)")
	chaosSeed := flag.Int64("chaos-seed", 0, "offset added to E11 fault-plan seeds")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	var ids []string
	if *only != "" {
		ids = strings.Split(*only, ",")
	}
	err := experiments.RunAll(os.Stdout, experiments.Options{
		Quick:     *quick,
		Only:      ids,
		CSVDir:    *csvDir,
		JSONDir:   *jsonDir,
		Parallel:  *parallel,
		ChaosSeed: *chaosSeed,
	})

	if *memprofile != "" {
		f, merr := os.Create(*memprofile)
		if merr != nil {
			fatal(merr)
		}
		runtime.GC()
		if merr := pprof.WriteHeapProfile(f); merr != nil {
			fatal(merr)
		}
		f.Close()
	}

	if err != nil {
		// Deferred profile writers must run before exiting on failure.
		fmt.Fprintln(os.Stderr, "experiments:", err)
		if *cpuprofile != "" {
			pprof.StopCPUProfile()
		}
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
