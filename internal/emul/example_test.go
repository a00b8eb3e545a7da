package emul_test

import (
	"encoding/binary"
	"fmt"
	"log"
	"time"

	"vinestalk/internal/emul"
	"vinestalk/internal/geo"
	"vinestalk/internal/sim"
)

// adder is a minimal deterministic Program: state is a counter, every
// input adds to it and emits the running total.
type adder struct{}

func (adder) Init(geo.RegionID) []byte { return make([]byte, 8) }

func (adder) Step(state []byte, in emul.Input[uint64]) ([]byte, []uint64) {
	cur := binary.BigEndian.Uint64(state) + in.Msg
	next := make([]byte, 8)
	binary.BigEndian.PutUint64(next, cur)
	return next, []uint64{cur}
}

// Example emulates one region's VSA with two mobile nodes, survives the
// leader walking away mid-stream, and prints the machine's outputs as the
// leader commits them — the same sequence a direct execution would produce.
func Example() {
	k := sim.New(1)
	tiling := geo.MustGridTiling(2, 1)
	show := func(_ geo.RegionID, total uint64) { fmt.Println(total) }
	e := emul.New[uint64](k, tiling, adder{}, 10*time.Millisecond, 50*time.Millisecond, show, nil)
	for _, id := range []emul.NodeID{1, 2} {
		if err := e.AddNode(id, 0); err != nil {
			log.Fatal(err)
		}
	}
	e.Boot()

	_ = e.Submit(0, uint64(3))
	k.Run()
	_ = e.MoveNode(1, 1) // the leader leaves; node 2 takes over seamlessly
	_ = e.Submit(0, uint64(4))
	k.Run()

	fmt.Println("leader:", e.Leader(0))
	// Output:
	// 3
	// 7
	// leader: n2
}
