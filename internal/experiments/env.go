package experiments

import (
	"context"

	"vinestalk/internal/sweep"
)

// Env carries the run parameters every experiment driver receives: quick
// mode (reduced grid sizes and repetition counts) and the sweep worker
// budget.
type Env struct {
	Quick     bool
	Workers   int   // sweep worker count; <= 0 means GOMAXPROCS
	ChaosSeed int64 // offset added to fault-plan seeds (E11)
}

// cells runs fn over every sweep cell on env.Workers workers, returning
// results in cell order. Each cell must be self-contained — it builds its
// own sim.Kernel and metrics.Ledger — so runs are bit-identical at any
// worker count; drivers append table rows only after collection, in cell
// order.
func cells[J, R any](env Env, jobs []J, fn func(J) (R, error)) ([]R, error) {
	return sweep.Run(context.Background(), jobs,
		func(_ context.Context, j J) (R, error) { return fn(j) },
		sweep.Workers(env.Workers))
}
