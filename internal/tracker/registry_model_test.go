package tracker

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"vinestalk/internal/cgcast"
	"vinestalk/internal/hier"
)

// transitKey and mapRegistry are the in-transit registry as it was before the
// slab — a count per (object, kind, sender, addressee), resolved by hashing
// the key again — kept as the reference model the slab is checked against.
type transitKey struct {
	obj  ObjectID
	kind kindCode
	from hier.ClusterID
	to   hier.ClusterID
}

type mapRegistry struct {
	inflight     map[transitKey]int
	moveInflight int
}

func (m *mapRegistry) noteSent(key transitKey, copies int) {
	m.inflight[key] += copies
	if key.kind.moveFamily() {
		m.moveInflight += copies
	}
}

func (m *mapRegistry) resolve(key transitKey) {
	switch cnt := m.inflight[key]; {
	case cnt <= 0:
		return
	case cnt == 1:
		delete(m.inflight, key)
	default:
		m.inflight[key] = cnt - 1
	}
	if key.kind.moveFamily() {
		m.moveInflight--
	}
}

func (m *mapRegistry) inTransit() []Transit {
	var out []Transit
	for key, cnt := range m.inflight {
		t := Transit{Obj: key.obj, Kind: key.kind.String(), From: key.from, To: key.to}
		for i := 0; i < cnt; i++ {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Obj != b.Obj {
			return a.Obj < b.Obj
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
	return out
}

func (m *mapRegistry) inTransitFor(obj ObjectID) []Transit {
	all := m.inTransit()
	out := all[:0]
	for _, t := range all {
		if t.Obj == obj {
			out = append(out, t)
		}
	}
	return out
}

// sentMessage is one noted send as the history generator tracks it.
type sentMessage struct {
	ticket uint64
	key    transitKey
	copies int // not yet resolved
}

// TestRegistryMatchesMapModel applies seeded histories — sends of one and two
// copies, deliveries, drops, refused sends, and tickets that are zero, out of
// range, or already spent — to the slab and to the map it replaced, and
// requires the same InTransit(), the same InTransitFor(obj) for every object
// and the same MoveQuiescent() after every operation, no slot beyond the most
// messages ever in flight, and an all-free slab once everything resolved.
func TestRegistryMatchesMapModel(t *testing.T) {
	const objects, clusters = 5, 4
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := &Network{aut: &Automaton{}}
		model := &mapRegistry{inflight: make(map[transitKey]int)}
		var live, spent []sentMessage
		highWater := 0

		send := func(copies int) sentMessage {
			key := transitKey{
				obj:  ObjectID(rng.Intn(objects)),
				kind: kindCode(rng.Intn(len(kindNames))), // kindUnknown included
				from: hier.ClusterID(rng.Intn(clusters+1) - 1),
				to:   hier.ClusterID(rng.Intn(clusters)),
			}
			model.noteSent(key, copies)
			return sentMessage{ticket: n.noteSent(key.obj, key.kind, key.from, key.to, copies), key: key, copies: copies}
		}
		// resolveOne spends one copy of live[i] through the given entry point.
		resolveOne := func(i int, viaDrop bool) {
			m := &live[i]
			if viaDrop {
				n.noteDropped(0, 0, &cgcast.Delivery{Body: cgcast.Body{Mark: m.ticket}})
			} else {
				n.resolve(m.ticket)
			}
			model.resolve(m.key)
			if m.copies--; m.copies == 0 {
				spent = append(spent, *m)
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		check := func(op int, what string) {
			t.Helper()
			if got, want := n.InTransit(), model.inTransit(); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d op %d (%s): InTransit() = %v, model %v", seed, op, what, got, want)
			}
			for obj := ObjectID(0); obj < objects; obj++ {
				if got, want := n.InTransitFor(obj), model.inTransitFor(obj); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d op %d (%s): InTransitFor(%d) = %v, model %v", seed, op, what, obj, got, want)
				}
			}
			if got, want := n.MoveQuiescent(), model.moveInflight == 0; got != want {
				t.Fatalf("seed %d op %d (%s): MoveQuiescent() = %v, model %v", seed, op, what, got, want)
			}
			highWater = max(highWater, len(live))
			if len(n.transit) != highWater {
				t.Fatalf("seed %d op %d (%s): slab has %d slots, most messages ever in flight %d", seed, op, what, len(n.transit), highWater)
			}
		}

		for op := 0; op < 600; op++ {
			what := ""
			switch r := rng.Intn(20); {
			case r < 6:
				what = "send"
				live = append(live, send(1))
			case r < 8:
				what = "send, two copies"
				live = append(live, send(2))
			case r < 13 && len(live) > 0:
				what = "delivery"
				resolveOne(rng.Intn(len(live)), false)
			case r < 15 && len(live) > 0:
				what = "drop"
				resolveOne(rng.Intn(len(live)), true)
			case r < 16:
				what = "refused send"
				m := send(1 + rng.Intn(2))
				highWater = max(highWater, len(live)+1) // noted until the refusal
				for ; m.copies > 0; m.copies-- {
					n.resolve(m.ticket)
					model.resolve(m.key)
				}
				spent = append(spent, m)
			case r < 18 && len(spent) > 0:
				what = "spent ticket again"
				m := spent[rng.Intn(len(spent))]
				n.resolve(m.ticket)
				// The map could not tell a second resolution of a spent message
				// from the first of an identical one still in flight, and took
				// that one's copy; the slab does not. Everywhere else they agree.
				if model.inflight[m.key] == 0 {
					model.resolve(m.key)
				}
			case r < 19:
				what = "no ticket"
				n.resolve(0)
				model.resolve(transitKey{obj: objects + 1}) // a message nobody noted
			default:
				what = "ticket out of range"
				n.resolve(uint64(len(n.transit) + 1 + rng.Intn(1000)))
			}
			check(op, what)
		}
		for len(live) > 0 {
			resolveOne(len(live)-1, false)
		}
		check(-1, "drained")
		if len(n.InTransit()) != 0 || n.moveInflight != 0 {
			t.Fatalf("seed %d: drained registry still lists %v (move copies %d)", seed, n.InTransit(), n.moveInflight)
		}
		if len(n.transitFree) != len(n.transit) {
			t.Fatalf("seed %d: %d of %d slots free after everything resolved", seed, len(n.transitFree), len(n.transit))
		}
	}
}

// A ticket outlives its message as a number, not as a claim on the slot: once
// the slot holds another message, the old ticket resolves nothing.
func TestSpentTicketDoesNotResolveTheSlotsNextMessage(t *testing.T) {
	n := &Network{aut: &Automaton{}}
	first := n.noteSent(1, kindGrow, 2, 3, 1)
	n.resolve(first)
	second := n.noteSent(7, kindShrink, 4, 5, 1)
	if uint32(first) != uint32(second) {
		t.Fatalf("tickets %#x and %#x name different slots; the test needs the slot reused", first, second)
	}
	n.resolve(first)
	want := []Transit{{Obj: 7, Kind: KindShrink, From: 4, To: 5}}
	if got := n.InTransit(); !reflect.DeepEqual(got, want) || n.MoveQuiescent() {
		t.Fatalf("a spent ticket resolved the slot's next message: InTransit() = %v, quiescent %v", got, n.MoveQuiescent())
	}
	n.resolve(second)
	if got := n.InTransit(); len(got) != 0 || !n.MoveQuiescent() {
		t.Fatalf("the live ticket did not resolve its message: InTransit() = %v", got)
	}
}

// Noting a send and resolving it allocate nothing once the slab has a slot.
func TestRegistrySteadyStateAllocatesNothing(t *testing.T) {
	n := &Network{aut: &Automaton{}}
	n.resolve(n.noteSent(0, kindGrow, 1, 2, 1)) // warm-up: the slot and the free list
	if got := testing.AllocsPerRun(1000, func() {
		n.resolve(n.noteSent(3, kindFind, 1, 2, 1))
	}); got != 0 {
		t.Errorf("noteSent + resolve allocated %v times, want 0", got)
	}
}
