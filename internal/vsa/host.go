package vsa

import (
	"vinestalk/internal/geo"
	"vinestalk/internal/sim"
)

// This file defines the ports-and-adapters boundary between a VSA-hosted
// algorithm and the substrate that executes it.
//
// An Automaton is a deterministic machine partitioned per region: all of
// its state for region u is explicit and serializable (EncodeRegion /
// DecodeRegion), every state change is driven by an input the host hands
// it (Deliver, TimerFire), and it reads the time of that input from its
// Host (Now). It holds no timers, network handles, or scheduled closures
// of its own, and its effects (sends, outputs, timer writes) leave through
// one typed port that each host implements — which is what makes one
// automaton runnable on different substrates:
//
//   - an oracle host executes each region's machine directly and
//     atomically (the abstract layer this package implements), executing
//     each effect as it is emitted;
//   - a replicated-emulation host (internal/emul) runs each region's
//     machine on the mobile nodes currently in the region, surviving
//     leader handoff and node churn by replaying the serialized state, and
//     executes the effects of the leader's replica at its commit point;
//   - a networked host (internal/nethost) runs each region's machine on
//     its own goroutine and turns its effects into wire frames and
//     wall-clock timers.
//
// Determinism contract: a region's state after processing a sequence of
// inputs must be a pure function of (initial state, input sequence, input
// times). Encode/decode must round-trip exactly — a replica that decodes a
// checkpoint and applies the same inputs must encode byte-identical state.

// TimerID names one logical timer of an automaton region. The automaton
// assigns ids (packing whatever coordinates it needs — level, object,
// timer role); the host treats them as opaque. Within one region, an id
// names at most one armed deadline at a time: re-setting an id supersedes
// its previous deadline, exactly like assigning a TIOA timer variable.
type TimerID uint64

// Host is the substrate-side port an Automaton runs against: the clock of
// its inputs. Effects do not pass through it; each host hands its
// automaton a typed port for them.
type Host interface {
	// Now returns the instant of the input being processed — the time the
	// delivery or timer fire was due, or an external input's arrival —
	// on all three hosts, so state stays a function of inputs and their
	// times. It is not a fresh clock reading: the networked host may run an
	// input after its instant.
	Now() sim.Time
}

// Automaton is the algorithm-side port: a deterministic, serializable
// per-region machine. Implementations must confine all mutable state to
// what EncodeRegion captures, and perform all external actions through
// the port their host gave them.
type Automaton interface {
	// Deliver hands the region's machine one message addressed to the
	// subautomaton at the given hierarchy level. The tracker's hosts hand
	// it a *cgcast.Delivery. msg is untyped because the benchmark's idle
	// automaton (benchmark/micro.go) implements this port with this
	// signature, and the benchmark's code is held fixed so that its runs
	// compare across commits.
	Deliver(u geo.RegionID, level int, msg any)

	// TimerFire reports that timer id, armed for deadline at, has come
	// due. The automaton must treat the call as advisory: if its recorded
	// deadline for id is not exactly at (the timer was re-armed, cleared,
	// or the state was lost and rebuilt), the fire is ignored.
	TimerFire(u geo.RegionID, id TimerID, at sim.Time)

	// ResetRegion returns region u's machine to its initial state (VSA
	// failure or restart, §II-C.2), clearing any armed timers through the
	// port its effects take.
	ResetRegion(u geo.RegionID)

	// EncodeRegion serializes region u's complete machine state. Two
	// regions that processed the same input sequence from the same state
	// must encode byte-identical values.
	EncodeRegion(u geo.RegionID) []byte

	// DecodeRegion replaces region u's machine state with a previously
	// encoded value. It must not touch host timers: the recorded deadlines
	// inside the state are authoritative, and host wakeups self-guard.
	DecodeRegion(u geo.RegionID, state []byte) error
}
