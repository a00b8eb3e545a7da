package sim

import "sync"

// Sharded is K kernels run side by side: one private kernel per shard, and
// runs that drain them concurrently. It serves core.NewParallel — K
// share-nothing replica stacks whose events never address another stack
// (Theorem 4.9) — and kernels that exchange nothing while they run need no
// lookahead, no barrier and no common clock: each executes its events in
// (time, seq) order exactly as a standalone kernel given the same inputs
// would, at every K and under every goroutine schedule. The one thing that
// crosses shards is an input the driver hands over between runs (Send).
//
// A Sharded is driven from one goroutine. RNG streams are per shard: a
// program that wants K-independent results must not draw from Kernel.Rand.
type Sharded struct {
	shards  []*Shard
	wg      sync.WaitGroup // a field, so a run that starts no goroutine allocates nothing
	running bool           // written between runs only; Send reads it
	rounds  uint64
	cross   uint64
}

// Shard is one kernel of a Sharded engine. Between runs the driver may use
// the kernel and Send freely; during a run only the shard's own events may.
type Shard struct {
	eng *Sharded
	id  int
	k   *Kernel
}

// NewSharded builds an engine of k shards, each kernel's RNG stream derived
// from seed.
func NewSharded(seed int64, k int) *Sharded {
	if k < 1 {
		panic("sim: NewSharded needs at least one shard")
	}
	e := &Sharded{shards: make([]*Shard, k)}
	for i := range e.shards {
		e.shards[i] = &Shard{eng: e, id: i, k: New(seed + int64(i)*0x9E37)}
	}
	return e
}

// K returns the number of shards.
func (e *Sharded) K() int { return len(e.shards) }

// Shard returns shard i.
func (e *Sharded) Shard(i int) *Shard { return e.shards[i] }

// Rounds returns the number of runs in which some shard executed an event.
func (e *Sharded) Rounds() uint64 { return e.rounds }

// CrossSends returns the number of Sends whose destination was another shard.
func (e *Sharded) CrossSends() uint64 { return e.cross }

// Steps returns the total events processed across all shards.
func (e *Sharded) Steps() uint64 {
	var n uint64
	for _, s := range e.shards {
		n += s.k.Steps()
	}
	return n
}

// Kernel returns the shard's private kernel.
func (s *Shard) Kernel() *Kernel { return s.k }

// Send schedules fn at absolute time due on shard `to`: an ordinary
// insertion into that shard's kernel, so inputs for one kernel at one due
// time fire in call order whichever shards sent them. It is for the driver,
// between runs: during one the destination may be executing on another
// goroutine, so a Send from a running event panics.
func (s *Shard) Send(to int, due Time, fn func()) {
	if s.eng.running {
		panic("sim: Shard.Send while the engine is running; send between runs")
	}
	if to != s.id {
		s.eng.cross++
	}
	s.eng.shards[to].k.At(due, fn)
}

// RunUntil processes every event with firing time ≤ t on every shard,
// advances every shard clock to exactly t and returns the events processed.
func (e *Sharded) RunUntil(t Time) uint64 {
	total := e.run(t)
	for _, s := range e.shards {
		s.k.RunUntil(t) // no events ≤ t remain; aligns the clock
	}
	return total
}

// Run drains every shard, leaves each clock at the shard's last executed
// event and returns the events processed.
func (e *Sharded) Run() uint64 { return e.run(Forever) }

// run drains every shard that has an event at or before t: the first such
// shard on the caller's goroutine, each further one on a goroutine of its
// own, so a run that touches one stack starts none.
func (e *Sharded) run(t Time) uint64 {
	before := e.Steps()
	var own *Shard
	e.running = true
	for _, s := range e.shards {
		if next := s.k.NextEventTime(); next == Forever || next > t {
			continue
		}
		e.wg.Add(1)
		if own == nil {
			own = s
		} else {
			go s.drain(t)
		}
	}
	if own != nil {
		own.drain(t)
		e.rounds++
	}
	e.wg.Wait()
	e.running = false
	return e.Steps() - before
}

func (s *Shard) drain(t Time) {
	defer s.eng.wg.Done()
	for s.k.NextEventTime() <= t && s.k.Step() {
	}
}
