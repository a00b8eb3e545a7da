package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"vinestalk/internal/sweep"
)

// Options configures a RunAll invocation.
type Options struct {
	Quick     bool     // reduced grid sizes and repetition counts
	Only      []string // experiment ids to run (all when empty)
	CSVDir    string   // also write each table as <dir>/<ID>.csv when set
	JSONDir   string   // also write each result (table + checks + ledgers) as <dir>/<ID>.json
	Parallel  int      // sweep worker count; <= 0 means GOMAXPROCS
	ChaosSeed int64    // offset added to fault-plan seeds (E11)
}

// RunAll executes the selected experiments, rendering each result to w and
// optionally writing CSVs. Experiments and their internal sweep cells run
// on Options.Parallel workers; each experiment's output is buffered and
// written in presentation order, so the rendered tables are byte-identical
// at any worker count. It returns an error if any experiment fails to run
// or any shape check fails — the contract the CLI and CI rely on.
func RunAll(w io.Writer, opts Options) error {
	for _, dir := range []string{opts.CSVDir, opts.JSONDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
		}
	}
	selected, err := selectExperiments(opts.Only)
	if err != nil {
		return err
	}
	env := Env{Quick: opts.Quick, Workers: opts.Parallel, ChaosSeed: opts.ChaosSeed}

	// Each experiment renders into its own buffer inside the worker pool;
	// the buffers are concatenated in presentation order afterwards.
	type segment struct {
		out    bytes.Buffer
		failed bool
	}
	segments, err := sweep.Run(context.Background(), selected,
		func(_ context.Context, exp Experiment) (*segment, error) {
			seg := &segment{}
			fmt.Fprintf(&seg.out, "running %s: %s ...\n", exp.ID, exp.Name)
			res, err := exp.Run(env)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", exp.ID, err)
			}
			res.Render(&seg.out)
			if opts.CSVDir != "" {
				path, err := res.SaveCSV(opts.CSVDir)
				if err != nil {
					return nil, fmt.Errorf("%s: write csv: %w", exp.ID, err)
				}
				fmt.Fprintln(&seg.out, "wrote", path)
			}
			if opts.JSONDir != "" {
				path, err := res.SaveJSON(opts.JSONDir)
				if err != nil {
					return nil, fmt.Errorf("%s: write json: %w", exp.ID, err)
				}
				fmt.Fprintln(&seg.out, "wrote", path)
			}
			seg.failed = !res.Passed()
			return seg, nil
		}, sweep.Workers(opts.Parallel))
	if err != nil {
		return err
	}

	failures := 0
	for _, seg := range segments {
		if _, err := w.Write(seg.out.Bytes()); err != nil {
			return err
		}
		if seg.failed {
			failures++
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d experiment(s) had failing shape checks", failures)
	}
	fmt.Fprintln(w, "all experiment shape checks passed")
	return nil
}

// selectExperiments resolves the -only id list against the registry in
// presentation order, reporting every unknown id by name.
func selectExperiments(only []string) ([]Experiment, error) {
	all := All()
	if len(only) == 0 {
		return all, nil
	}
	wanted := make(map[string]bool, len(only))
	for _, id := range only {
		if id = strings.TrimSpace(id); id != "" {
			wanted[strings.ToUpper(id)] = true
		}
	}
	known := make(map[string]bool, len(all))
	var selected []Experiment
	for _, exp := range all {
		known[exp.ID] = true
		if wanted[exp.ID] {
			selected = append(selected, exp)
		}
	}
	var unknown []string
	for id := range wanted {
		if !known[id] {
			unknown = append(unknown, id)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown experiment id(s) %s; known ids are %s",
			strings.Join(unknown, ", "), strings.Join(knownIDs(all), ", "))
	}
	return selected, nil
}

// knownIDs lists every registered experiment id in presentation order.
func knownIDs(all []Experiment) []string {
	ids := make([]string, len(all))
	for i, exp := range all {
		ids[i] = exp.ID
	}
	return ids
}
