package experiments

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"vinestalk/internal/emul"
	"vinestalk/internal/geo"
	"vinestalk/internal/sim"
)

// counterProgram is the deterministic reference machine for the emulation
// fidelity experiment: state is a counter, every input adds to it and
// emits the running total.
type counterProgram struct{}

// Init returns the zero counter.
func (counterProgram) Init(u geo.RegionID) []byte { return make([]byte, 8) }

// Step adds the input and emits the new total.
func (counterProgram) Step(state []byte, in emul.Input[uint64]) ([]byte, []uint64) {
	cur := binary.BigEndian.Uint64(state) + in.Msg
	next := make([]byte, 8)
	binary.BigEndian.PutUint64(next, cur)
	return next, []uint64{cur}
}

// committedTotal is one output of region 0's VSA with its commit time.
type committedTotal struct {
	total uint64
	at    sim.Time
}

// E9Emulation regenerates the substrate assumption the whole analysis
// rests on (§II-C, refs [7],[6]): a VSA emulated by churning mobile nodes
// behaves like the abstract machine — identical output sequence to a
// direct (oracle) execution — with every output delayed by at most the
// emulation lag e. The experiment drives the leader-based emulator with
// node churn (joins, leaves, leader crashes) and measures output
// correctness and the observed lag distribution.
func E9Emulation(env Env) (*Result, error) {
	trials := 6
	steps := 60
	if env.Quick {
		trials = 3
		steps = 30
	}
	res := &Result{Table: Table{
		ID:      "E9",
		Title:   "VSA emulation fidelity under node churn",
		Claim:   "emulated trace equals the oracle; output lag ≤ e = 2δ (refs [7],[6], the paper's §II-C substrate)",
		Columns: []string{"trial", "inputs", "outputs ok", "max lag", "lag bound", "leader handoffs"},
	}}

	delta := 10 * time.Millisecond
	trialIDs := make([]int, trials)
	for i := range trialIDs {
		trialIDs[i] = i
	}
	// One sweep cell per churn trial, each on its own kernel and emulator.
	type cell struct {
		inputs   int
		ok       bool
		maxLag   sim.Time
		bound    sim.Time
		handoffs int
	}
	measured, err := cells(env, trialIDs, func(trial int) (cell, error) {
		k := sim.New(int64(trial) + 7)
		tiling := geo.MustGridTiling(2, 2)
		// Region 0's outputs as the leader commits them; a restarted
		// incarnation starts from the initial state, so its trace starts
		// afresh.
		var outs []committedTotal
		sink := func(u geo.RegionID, total uint64) {
			if u == 0 {
				outs = append(outs, committedTotal{total: total, at: k.Now()})
			}
		}
		events := func(ev emul.RegionEvent) {
			if ev.U == 0 && ev.Kind == emul.RegionRestarted {
				outs = outs[:0]
			}
		}
		e := emul.New[uint64](k, tiling, counterProgram{}, delta, 3*delta, sink, events)
		for id := emul.NodeID(1); id <= 4; id++ {
			if err := e.AddNode(id, 0); err != nil {
				return cell{}, err
			}
		}
		e.Boot()
		rng := rand.New(rand.NewSource(int64(trial) + 70))

		var inputs []uint64
		var submitTimes []sim.Time
		handoffs := 0
		lastLeader := e.Leader(0)
		for step := 0; step < steps; step++ {
			switch rng.Intn(5) {
			case 0, 1:
				v := uint64(rng.Intn(50) + 1)
				inputs = append(inputs, v)
				submitTimes = append(submitTimes, k.Now())
				if err := e.Submit(0, v); err != nil {
					return cell{}, err
				}
			case 2:
				// Churn a non-leader node.
				id := emul.NodeID(rng.Intn(4) + 1)
				if id != e.Leader(0) {
					_ = e.MoveNode(id, geo.RegionID(rng.Intn(4)))
				}
			case 3:
				// Evict the leader when enough replicas remain to take
				// over (forcing a handoff); it rejoins via case-2 churn.
				if len(e.Members(0)) >= 3 {
					_ = e.MoveNode(e.Leader(0), geo.RegionID(1))
				}
			case 4:
				k.RunFor(delta)
			}
			k.Run()
			if l := e.Leader(0); l != lastLeader {
				handoffs++
				lastLeader = l
			}
		}
		k.Run()

		// Oracle comparison plus per-output lag.
		ok := len(outs) == len(inputs)
		var maxLag sim.Time
		sum := uint64(0)
		for i, out := range outs {
			sum += inputs[i]
			if out.total != sum {
				ok = false
				break
			}
			if lag := out.at - submitTimes[i]; lag > maxLag {
				maxLag = lag
			}
		}
		bound := e.MaxLag()
		if maxLag > bound {
			ok = false
		}
		return cell{inputs: len(inputs), ok: ok, maxLag: maxLag, bound: bound, handoffs: handoffs}, nil
	})
	if err != nil {
		return nil, err
	}

	allOK := true
	for trial, c := range measured {
		allOK = allOK && c.ok
		res.Table.AddRow(trial, c.inputs, c.ok, c.maxLag, c.bound, c.handoffs)
	}
	res.check("emulation faithful under churn", allOK,
		"all trials matched the oracle with lag within the bound")
	res.Table.Notes = append(res.Table.Notes,
		fmt.Sprintf("e = 2δ = %v: broadcast-in plus leader sequencing round, the lag the C-gcast schedule charges", 2*delta))
	return res, nil
}
