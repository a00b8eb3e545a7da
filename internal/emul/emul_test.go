package emul

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"vinestalk/internal/geo"
	"vinestalk/internal/sim"
)

const (
	delta    = 10 * time.Millisecond
	tRestart = 30 * time.Millisecond
)

// counterProgram is the deterministic test machine: state is a uint64
// counter; every "add k" input adds k and emits the running total.
type counterProgram struct{}

func (counterProgram) Init(u geo.RegionID) []byte {
	return make([]byte, 8)
}

func (counterProgram) Step(state []byte, in Input[uint64]) ([]byte, []uint64) {
	cur := binary.BigEndian.Uint64(state) + in.Msg
	next := make([]byte, 8)
	binary.BigEndian.PutUint64(next, cur)
	return next, []uint64{cur}
}

// oracle executes the program directly, returning the expected output
// sequence for a list of input payloads.
func oracle(u geo.RegionID, inputs []uint64) []uint64 {
	var prog counterProgram
	state := prog.Init(u)
	var outs []uint64
	for i, k := range inputs {
		var o []uint64
		state, o = prog.Step(state, Input[uint64]{ID: uint64(i + 1), Msg: k})
		outs = append(outs, o...)
	}
	return outs
}

// traced is one committed output with its commit time.
type traced struct {
	total uint64
	at    sim.Time
}

// recorder keeps each region's committed outputs as the sink hands them
// over; a region that restarts begins a fresh trace, since its new
// incarnation starts from the initial state.
type recorder struct {
	k    *sim.Kernel
	outs map[geo.RegionID][]traced
}

func newRecorder(k *sim.Kernel) *recorder {
	return &recorder{k: k, outs: make(map[geo.RegionID][]traced)}
}

func (r *recorder) sink(u geo.RegionID, total uint64) {
	r.outs[u] = append(r.outs[u], traced{total: total, at: r.k.Now()})
}

func (r *recorder) event(ev RegionEvent) {
	if ev.Kind == RegionRestarted {
		delete(r.outs, ev.U)
	}
}

// totals returns region u's committed outputs so far.
func (r *recorder) totals(u geo.RegionID) []uint64 {
	var out []uint64
	for _, o := range r.outs[u] {
		out = append(out, o.total)
	}
	return out
}

func assertTraceEqual(t *testing.T, got, want []uint64) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("trace = %v, want %v", got, want)
	}
}

// newRecorded builds an emulator of counterProgram on t whose outputs rec
// records.
func newRecorded(k *sim.Kernel, t geo.Tiling) (*Emulator[uint64, uint64], *recorder) {
	rec := newRecorder(k)
	return New[uint64](k, t, counterProgram{}, delta, tRestart, rec.sink, rec.event), rec
}

func newEmulator(t *testing.T, side int) (*sim.Kernel, *Emulator[uint64, uint64], *recorder) {
	t.Helper()
	k := sim.New(1)
	e, rec := newRecorded(k, geo.MustGridTiling(side, side))
	return k, e, rec
}

func TestSingleNodeEmulationMatchesOracle(t *testing.T) {
	k, e, rec := newEmulator(t, 2)
	if err := e.AddNode(1, 0); err != nil {
		t.Fatal(err)
	}
	e.Boot()
	if !e.Alive(0) {
		t.Fatal("VSA not alive after Boot")
	}
	inputs := []uint64{3, 5, 7}
	for _, in := range inputs {
		if err := e.Submit(0, in); err != nil {
			t.Fatal(err)
		}
		k.Run()
	}
	assertTraceEqual(t, rec.totals(0), oracle(0, inputs))
	if got := e.Leader(0); got != 1 {
		t.Errorf("Leader = %v, want n1", got)
	}
}

func TestEmulationLagBounded(t *testing.T) {
	k, e, rec := newEmulator(t, 2)
	if err := e.AddNode(1, 0); err != nil {
		t.Fatal(err)
	}
	e.Boot()
	if err := e.Submit(0, uint64(1)); err != nil {
		t.Fatal(err)
	}
	submitted := k.Now()
	k.Run()
	tr := rec.outs[0]
	if len(tr) != 1 {
		t.Fatalf("trace = %v", tr)
	}
	lag := tr[0].at - submitted
	if lag > e.MaxLag() {
		t.Errorf("output lag %v exceeds MaxLag %v", lag, e.MaxLag())
	}
	if lag <= 0 {
		t.Errorf("output lag %v not positive", lag)
	}
}

func TestLeaderIsLowestID(t *testing.T) {
	k, e, _ := newEmulator(t, 2)
	for _, id := range []NodeID{5, 2, 9} {
		if err := e.AddNode(id, 0); err != nil {
			t.Fatal(err)
		}
	}
	e.Boot()
	if got := e.Leader(0); got != 2 {
		t.Errorf("Leader = %v, want n2", got)
	}
	_ = k
}

func TestLeaderHandoffLosesNothing(t *testing.T) {
	k, e, rec := newEmulator(t, 2)
	if err := e.AddNode(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.AddNode(2, 0); err != nil {
		t.Fatal(err)
	}
	e.Boot()
	inputs := []uint64{10, 20}
	if err := e.Submit(0, inputs[0]); err != nil {
		t.Fatal(err)
	}
	k.Run()

	// Submit an input, then remove the leader after the broadcast round
	// but before the leader executes: the follower must take over and
	// execute it.
	if err := e.Submit(0, inputs[1]); err != nil {
		t.Fatal(err)
	}
	k.RunFor(delta + delta/2) // input buffered at both nodes
	if err := e.MoveNode(1, 1); err != nil {
		t.Fatal(err)
	}
	if got := e.Leader(0); got != 2 {
		t.Fatalf("Leader after handoff = %v, want n2", got)
	}
	k.Run()
	assertTraceEqual(t, rec.totals(0), oracle(0, inputs))
}

func TestLeaderCrashHandoff(t *testing.T) {
	k, e, rec := newEmulator(t, 2)
	if err := e.AddNode(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.AddNode(2, 0); err != nil {
		t.Fatal(err)
	}
	e.Boot()
	if err := e.Submit(0, uint64(4)); err != nil {
		t.Fatal(err)
	}
	k.RunFor(delta + delta/2)
	e.FailNode(1)
	k.Run()
	assertTraceEqual(t, rec.totals(0), oracle(0, []uint64{4}))
	if !e.Alive(0) {
		t.Fatal("VSA died despite surviving replica")
	}
}

func TestNoDuplicateExecutionAcrossHandoff(t *testing.T) {
	k, e, rec := newEmulator(t, 2)
	if err := e.AddNode(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.AddNode(2, 0); err != nil {
		t.Fatal(err)
	}
	e.Boot()
	// Input fully committed by the leader, THEN the leader leaves: the
	// new leader must not re-execute it.
	if err := e.Submit(0, uint64(6)); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if err := e.MoveNode(1, 1); err != nil {
		t.Fatal(err)
	}
	k.Run()
	assertTraceEqual(t, rec.totals(0), oracle(0, []uint64{6}))
}

func TestJoinerCheckpointsAndCanLead(t *testing.T) {
	k, e, rec := newEmulator(t, 2)
	if err := e.AddNode(1, 0); err != nil {
		t.Fatal(err)
	}
	e.Boot()
	if err := e.Submit(0, uint64(2)); err != nil {
		t.Fatal(err)
	}
	k.Run()
	// A node joins, checkpoints, and then the original leader leaves.
	if err := e.AddNode(3, 0); err != nil {
		t.Fatal(err)
	}
	k.Run() // checkpoint transfer completes
	if err := e.Submit(0, uint64(8)); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if err := e.MoveNode(1, 1); err != nil {
		t.Fatal(err)
	}
	if got := e.Leader(0); got != 3 {
		t.Fatalf("Leader = %v, want n3", got)
	}
	if err := e.Submit(0, uint64(5)); err != nil {
		t.Fatal(err)
	}
	k.Run()
	assertTraceEqual(t, rec.totals(0), oracle(0, []uint64{2, 8, 5}))
}

func TestRegionEmptyFailsVSAAndRestartsFresh(t *testing.T) {
	k, e, rec := newEmulator(t, 2)
	if err := e.AddNode(1, 0); err != nil {
		t.Fatal(err)
	}
	e.Boot()
	if err := e.Submit(0, uint64(9)); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if err := e.MoveNode(1, 1); err != nil {
		t.Fatal(err)
	}
	if e.Alive(0) {
		t.Fatal("VSA alive with empty region")
	}
	// Inputs while down are lost.
	if err := e.Submit(0, uint64(100)); err != nil {
		t.Fatal(err)
	}
	k.Run()
	// Node returns; VSA restarts from the initial state after tRestart.
	if err := e.MoveNode(1, 0); err != nil {
		t.Fatal(err)
	}
	k.RunFor(tRestart + time.Millisecond)
	if !e.Alive(0) {
		t.Fatal("VSA did not restart")
	}
	if err := e.Submit(0, uint64(1)); err != nil {
		t.Fatal(err)
	}
	k.Run()
	// Fresh incarnation: the counter restarted from zero.
	assertTraceEqual(t, rec.totals(0), oracle(0, []uint64{1}))
}

func TestUnsyncedJoinerCannotSaveVSA(t *testing.T) {
	k, e, _ := newEmulator(t, 2)
	if err := e.AddNode(1, 0); err != nil {
		t.Fatal(err)
	}
	e.Boot()
	// A joiner arrives and the leader leaves before the checkpoint
	// transfer completes: the state is unrecoverable, so the VSA fails.
	if err := e.AddNode(2, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.MoveNode(1, 1); err != nil { // immediately, joiner not synced
		t.Fatal(err)
	}
	if e.Alive(0) {
		t.Fatal("VSA survived without any synced replica")
	}
	// The remaining node eventually restarts it fresh.
	k.RunFor(tRestart + time.Millisecond)
	if !e.Alive(0) {
		t.Fatal("VSA did not restart with the unsynced node present")
	}
}

func TestValidation(t *testing.T) {
	k, e, _ := newEmulator(t, 2)
	if err := e.AddNode(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.AddNode(1, 1); err == nil {
		t.Error("duplicate AddNode accepted")
	}
	if err := e.AddNode(2, geo.RegionID(99)); err == nil {
		t.Error("AddNode outside tiling accepted")
	}
	if err := e.MoveNode(1, geo.RegionID(99)); err == nil {
		t.Error("MoveNode outside tiling accepted")
	}
	if err := e.MoveNode(42, 0); err == nil {
		t.Error("MoveNode of unknown node accepted")
	}
	if err := e.Submit(geo.RegionID(99), uint64(1)); err == nil {
		t.Error("Submit outside tiling accepted")
	}
	if e.Alive(geo.RegionID(99)) || e.Leader(geo.RegionID(99)) != NoNode {
		t.Error("queries outside tiling misbehave")
	}
	e.FailNode(42) // unknown: no-op
	_ = k
}

// Property: under random churn that always leaves at least one synced
// node in the region, the emulated trace equals the oracle on the inputs
// submitted while the VSA was up.
func TestChurnPreservesTrace(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		k := sim.New(int64(trial))
		tiling := geo.MustGridTiling(2, 2)
		e, rec := newRecorded(k, tiling)
		// Node 1 is the anchor that never leaves region 0; nodes 2-4 churn.
		for id := NodeID(1); id <= 4; id++ {
			if err := e.AddNode(id, 0); err != nil {
				t.Fatal(err)
			}
		}
		e.Boot()
		rng := rand.New(rand.NewSource(int64(trial) + 100))
		var inputs []uint64
		for step := 0; step < 40; step++ {
			switch rng.Intn(3) {
			case 0:
				v := uint64(rng.Intn(100) + 1)
				inputs = append(inputs, v)
				if err := e.Submit(0, v); err != nil {
					t.Fatal(err)
				}
			case 1:
				id := NodeID(rng.Intn(3) + 2)
				dest := geo.RegionID(rng.Intn(4))
				_ = e.MoveNode(id, dest) // may be dead; ignore
			case 2:
				k.RunFor(delta)
			}
			// Let every input fully commit before the next churn action,
			// keeping the "at least one synced replica" discipline simple.
			k.Run()
		}
		k.Run()
		want := oracle(0, inputs)
		got := rec.totals(0)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: trace %v != oracle %v", trial, got, want)
		}
	}
}

// Property: two runs with identical schedules produce identical traces.
func TestEmulatorDeterminism(t *testing.T) {
	run := func() string {
		k, e, rec := newEmulator(t, 2)
		for id := NodeID(1); id <= 3; id++ {
			if err := e.AddNode(id, 0); err != nil {
				t.Fatal(err)
			}
		}
		e.Boot()
		for i := uint64(1); i <= 10; i++ {
			if err := e.Submit(0, i); err != nil {
				t.Fatal(err)
			}
			if i == 5 {
				if err := e.MoveNode(1, 1); err != nil {
					t.Fatal(err)
				}
			}
			k.Run()
		}
		return fmt.Sprint(rec.outs[0])
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("runs diverged: %s vs %s", a, b)
	}
}

// TestEveryCommitPointLosesNothing proves the replica rule by exhaustion on
// one script: 12 inputs to region 0 of a 2×2 tiling with 3 nodes a region,
// submitted half a delta apart, so that at every commit point inputs are
// buffered and uncommitted and more are on their way. For every commit
// point k — after the k-th output — one run crashes the leader, and
// another joins a node and, once its checkpoint has landed, crashes every
// original node of the region, the leader last, so the joiner leads on what
// the checkpoint gave it. Each run's trace must equal the direct execution's: no input
// lost, none applied twice (the inputs are powers of two, so either shows
// in every later total).
func TestEveryCommitPointLosesNothing(t *testing.T) {
	inputs := make([]uint64, 12)
	for i := range inputs {
		inputs[i] = 1 << i
	}
	run := func(k int, join bool) {
		kern := sim.New(1)
		e, rec := newRecorded(kern, geo.MustGridTiling(2, 2))
		for id := NodeID(0); id < 12; id++ {
			if err := e.AddNode(id, geo.RegionID(id/3)); err != nil {
				t.Fatal(err)
			}
		}
		e.Boot()
		for i, v := range inputs {
			kern.At(sim.Time(i)*delta/2, func() {
				if err := e.Submit(0, v); err != nil {
					t.Error(err)
				}
			})
		}
		// Commit point k: k outputs, and an input buffered and uncommitted
		// unless all have committed.
		held := func() bool { l := e.leaderOf(0); return l != nil && len(l.buffer) > 0 }
		for (len(rec.outs[0]) < k || k < len(inputs) && !held()) && kern.Step() {
		}
		if len(rec.outs[0]) != k {
			t.Fatalf("commit point %d: %d outputs", k, len(rec.outs[0]))
		}
		if join {
			const joiner = 100
			if err := e.AddNode(joiner, 0); err != nil {
				t.Fatal(err)
			}
			for !e.nodes[joiner].hasReplica && kern.Step() {
			}
			// Followers first, so that no original node is promoted and
			// commits its buffer before the joiner leads.
			for id := NodeID(2); id >= 0; id-- {
				e.FailNode(id)
			}
			if got := e.Leader(0); got != joiner {
				t.Fatalf("k=%d: leader after the originals crashed = %v, want the joiner", k, got)
			}
		} else {
			e.FailNode(e.Leader(0))
			if !e.Alive(0) {
				t.Fatalf("k=%d: the region died with its leader", k)
			}
		}
		kern.Run()
		if got, want := fmt.Sprint(rec.totals(0)), fmt.Sprint(oracle(0, inputs)); got != want {
			t.Fatalf("k=%d, join=%v: trace %s, direct execution %s", k, join, got, want)
		}
	}
	for k := 0; k <= len(inputs); k++ {
		run(k, false)
		run(k, true)
	}
}

// paddedProgram is counterProgram with a 64-byte state, so that what a
// checkpoint copies falls in fixed size classes.
type paddedProgram struct{}

func (paddedProgram) Init(geo.RegionID) []byte { return make([]byte, 64) }

func (paddedProgram) Step(state []byte, in Input[uint64]) ([]byte, []uint64) {
	cur := binary.BigEndian.Uint64(state) + in.Msg
	next := make([]byte, 64)
	binary.BigEndian.PutUint64(next, cur)
	return next, []uint64{cur}
}

// TestEmulatorJoinKeepsNoHistory: a replica keeps its state and the inputs
// not yet committed, and no record of what it has committed, so a joiner's
// checkpoint copies the same bytes after 10 committed inputs as after
// 10 000: the 64-byte state and two pending inputs, 16 bytes each.
func TestEmulatorJoinKeepsNoHistory(t *testing.T) {
	checkpoint := func(history int) uint64 {
		k := sim.New(1)
		e := New[uint64](k, geo.MustGridTiling(2, 1), paddedProgram{}, delta, tRestart, nil, nil)
		for id := NodeID(1); id <= 2; id++ {
			if err := e.AddNode(id, geo.RegionID(id-1)); err != nil {
				t.Fatal(err)
			}
		}
		e.Boot()
		for i := 0; i < history; i++ {
			_ = e.Submit(0, 1)
		}
		k.Run()
		// Node 2 joins region 0 with two inputs broadcast and not committed
		// when its checkpoint lands, delta later, and leaves again. The
		// least of five joins is the checkpoint's own cost: anything else
		// the process allocates meanwhile only adds to a reading.
		least := uint64(math.MaxUint64)
		for range 5 {
			_ = e.Submit(0, 1)
			_ = e.Submit(0, 1)
			k.RunFor(delta / 2)
			if err := e.MoveNode(2, 0); err != nil {
				t.Fatal(err)
			}
			k.RunFor(delta / 2)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			k.RunFor(delta / 2)
			runtime.ReadMemStats(&after)
			if n := e.nodes[2]; !n.hasReplica || len(n.buffer) != 2 {
				t.Fatalf("after %d inputs: the joiner holds a replica %v with %d buffered inputs, want 2", history, n.hasReplica, len(n.buffer))
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
			k.Run()
			if err := e.MoveNode(2, 1); err != nil {
				t.Fatal(err)
			}
		}
		return least
	}
	small, large := checkpoint(10), checkpoint(10_000)
	t.Logf("a checkpoint copies %d bytes after 10 inputs, %d after 10 000", small, large)
	if want := uint64(64 + 2*unsafe.Sizeof(Input[uint64]{})); small != want || large != want {
		t.Errorf("a checkpoint copies %d bytes after 10 inputs and %d after 10 000, want %d for both", small, large, want)
	}
}

// TestLostReplicaKeepsNothing crashes and replaces region 0's leader again
// and again, moving a follower out and back in between, and requires that
// no node without a replica — crashed, departed or still checkpointing —
// holds a state or a buffered input.
func TestLostReplicaKeepsNothing(t *testing.T) {
	k, e, rec := newEmulator(t, 2)
	for id := NodeID(1); id <= 3; id++ {
		if err := e.AddNode(id, 0); err != nil {
			t.Fatal(err)
		}
	}
	e.Boot()
	check := func(ctx string) {
		t.Helper()
		for _, n := range e.nodes {
			if !n.hasReplica && (n.state != nil || len(n.buffer) > 0) {
				t.Fatalf("%s: %v has no replica but keeps %d state bytes and %d inputs", ctx, n.id, len(n.state), len(n.buffer))
			}
		}
	}
	var inputs []uint64
	next := NodeID(4)
	for round := 0; round < 20; round++ {
		v := uint64(round + 1)
		inputs = append(inputs, v)
		_ = e.Submit(0, v)
		k.RunFor(delta + delta/2) // buffered, not committed
		if err := e.AddNode(next, 0); err != nil {
			t.Fatal(err)
		}
		next++
		e.FailNode(e.Leader(0))
		check("leader crashed")
		follower := e.Members(0)[len(e.Members(0))-1]
		if err := e.MoveNode(follower, 1); err != nil {
			t.Fatal(err)
		}
		check("follower left")
		k.Run()
		if err := e.MoveNode(follower, 0); err != nil {
			t.Fatal(err)
		}
		k.Run()
		check("round over")
	}
	assertTraceEqual(t, rec.totals(0), oracle(0, inputs))
}

// An input belongs to the incarnation it was submitted to. Here the region
// fails after a Submit and restarts (tRestart < delta) before the input's
// broadcast would land: the new incarnation must not commit it. A Submit
// while the region is down is lost at once.
func TestInputCommitsOnlyInItsIncarnation(t *testing.T) {
	k := sim.New(1)
	e, rec := newRecorded(k, geo.MustGridTiling(2, 1))
	e.tRestart = delta / 4
	if err := e.AddNode(1, 0); err != nil {
		t.Fatal(err)
	}
	e.Boot()
	_ = e.Submit(0, 5)
	k.RunFor(delta / 4)
	if err := e.MoveNode(1, 1); err != nil {
		t.Fatal(err)
	}
	_ = e.Submit(0, 7) // down: lost
	if err := e.MoveNode(1, 0); err != nil {
		t.Fatal(err)
	}
	k.RunFor(delta / 2)
	if !e.Alive(0) {
		t.Fatal("the region did not restart before the input's broadcast")
	}
	k.Run()
	if got := rec.totals(0); len(got) != 0 {
		t.Fatalf("the restarted region committed %v, inputs of an ended incarnation", got)
	}
	_ = e.Submit(0, 9)
	k.Run()
	assertTraceEqual(t, rec.totals(0), oracle(0, []uint64{9}))
}
