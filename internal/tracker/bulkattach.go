package tracker

import (
	"fmt"
	"sort"

	"vinestalk/internal/cgcast"
	"vinestalk/internal/geo"
	"vinestalk/internal/metrics"
)

// Bulk attach (§VII multiple objects at production fan-out).
//
// Sequentially attaching k objects runs k full grow cascades to the root —
// k·O(height) protocol messages and table inserts — even when many
// objects start in the same region and therefore build the *same* tracking
// path. Theorem 4.9's independence property licenses a collapse: the
// settled post-attach state of an object is a deterministic function of its
// start region alone (during a pure attach no same-level neighbor is ever
// on the object's own path, so every timer fire picks the hierarchy
// parent), and settled state vectors carry no armed timers and no pending
// finds — they are pure pointer tuples. AttachObjects therefore groups the
// attach targets by start region, runs the real grow cascade once per
// distinct (region → root) path through the normal event machinery for one
// leader object, and splices every other object of the group into the
// leader's settled footprint: one batch insert per affected process table,
// client detection flags planted directly, and the leader's ledger delta
// replayed ×(group−1) so per-message "proto/"
// accounting stays identical to sequential attach. Under C-gcast batching
// the wire frames are *not* multiplied — attach traffic scales with
// distinct path edges, not with objects, which is the perf claim — while
// under plain frame accounting (CountFrames) they are, keeping the ledger
// byte-comparable to k sequential attaches.

// AttachSpec names one object of a bulk attach.
type AttachSpec struct {
	// Obj is the object id; it must not already be attached.
	Obj ObjectID
	// At is the object's start region.
	At geo.RegionID
	// Where is the position hook registered for the object (what
	// Network.AttachObject takes): it must report the object's current
	// region. Nil defaults to a fixed closure over At — only correct for
	// objects that never move, so callers driving the object through an
	// evader must supply its Region method.
	Where func() geo.RegionID
}

// bulkSettleBudget bounds the kernel drain after each leader cascade
// (matching core.Service.Settle's livelock guard).
const bulkSettleBudget = 20_000_000

// spliceJob plants one group's follower rows into one process table,
// cloned from the leader's settled state vector there.
type spliceJob struct {
	pr   *Process
	tmpl objState   // a copy: the leader's row moves when later groups insert
	objs []ObjectID // the group's followers
}

// AttachObjects starts tracking every object in specs in one bulk pass.
// The post-attach automaton state (and every region's canonical encoding)
// is byte-identical to attaching the objects one at a time and settling;
// see the package comment above for the argument. It runs the simulation
// kernel internally — once per distinct start region — so it must be
// called at a move-quiescent instant, like the sequential attach+settle
// sequence it replaces. Not available with heartbeats (leases keep the
// queue busy, so "settled leader state" is ill-defined) or under emulation
// (region state lives in the emulating nodes' replicas, which a host-side
// splice would bypass).
func (n *Network) AttachObjects(specs []AttachSpec) error {
	if len(specs) == 0 {
		return nil
	}
	if n.emulHost != nil {
		return fmt.Errorf("tracker: bulk attach is unavailable under emulation")
	}
	if n.hb != nil {
		return fmt.Errorf("tracker: bulk attach is unavailable with heartbeats enabled")
	}
	tl := n.h.Tiling()
	seen := make(map[ObjectID]bool, len(specs))
	for _, sp := range specs {
		if !tl.Contains(sp.At) {
			return fmt.Errorf("tracker: bulk attach: region %v outside tiling", sp.At)
		}
		if seen[sp.Obj] {
			return fmt.Errorf("tracker: bulk attach: duplicate object %v", sp.Obj)
		}
		seen[sp.Obj] = true
		if _, dup := n.evaderAt[sp.Obj]; dup {
			return fmt.Errorf("tracker: object %v already attached", sp.Obj)
		}
	}

	// Group by start region; within a group the smallest id leads.
	sorted := append([]AttachSpec(nil), specs...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].At != sorted[j].At {
			return sorted[i].At < sorted[j].At
		}
		return sorted[i].Obj < sorted[j].Obj
	})

	ledger := n.cg.Ledger()
	var jobs []spliceJob
	for start := 0; start < len(sorted); {
		end := start
		for end < len(sorted) && sorted[end].At == sorted[start].At {
			end++
		}
		group := sorted[start:end]
		start = end
		u := group[0].At
		leader := group[0].Obj

		var before metrics.Snapshot
		if ledger != nil {
			before = ledger.Snapshot()
		}
		// The leader's attach is the real thing: GPS move input to the
		// region's clients, grow cascade through the normal event
		// machinery, kernel drained to settlement.
		n.handleObjectEvent(leader, u, true)
		if _, err := n.k.RunLimited(bulkSettleBudget); err != nil {
			return fmt.Errorf("tracker: bulk attach cascade at region %v: %w", u, err)
		}

		if len(group) > 1 {
			followers := make([]ObjectID, 0, len(group)-1)
			for _, sp := range group[1:] {
				followers = append(followers, sp.Obj)
			}
			if ledger != nil {
				diff := ledger.Snapshot().Sub(before)
				if n.cg.Batching() {
					// Batched frames are shared across the group by
					// construction: one frame per distinct path edge per
					// round, however many objects ride it.
					delete(diff.MsgCount, cgcast.FrameKind)
					delete(diff.HopWork, cgcast.FrameKind)
					delete(diff.Delivered, cgcast.FrameKind)
					delete(diff.Drops, cgcast.FrameKind)
				}
				ledger.AddSnapshot(diff, int64(len(followers)))
			}
			// The leader's settled footprint — every process (primary or
			// backup replica) holding a state vector for it — becomes the
			// group's splice template.
			collect := func(pr *Process) error {
				if pr == nil {
					return nil
				}
				st := pr.objs.get(leader)
				if st == nil {
					return nil
				}
				if !st.settled() {
					return fmt.Errorf("tracker: bulk attach: leader %v not settled at cluster %v", leader, pr.id)
				}
				jobs = append(jobs, spliceJob{pr: pr, tmpl: *st, objs: followers})
				return nil
			}
			for _, pr := range n.aut.procs {
				if err := collect(pr); err != nil {
					return err
				}
			}
			for _, pr := range n.aut.backups {
				if err := collect(pr); err != nil {
					return err
				}
			}
			// Plant follower detection state exactly where the leader's GPS
			// input left its own: clients that detected the leader detect
			// the followers, and each follower opens its first move epoch.
			for _, id := range n.cg.Layer().ClientsIn(u) {
				c, ok := n.clients[id]
				if !ok || !c.core.detects(leader) {
					continue
				}
				for _, obj := range followers {
					c.core.adopt(obj)
				}
			}
			for _, obj := range followers {
				n.moveEpochs[obj]++
			}
		}
		// Register position hooks — the same point sequential AddObject
		// registers them (after the GPS input, before further kernel runs).
		for _, sp := range group {
			where := sp.Where
			if where == nil {
				at := sp.At
				where = func() geo.RegionID { return at }
			}
			n.evaderAt[sp.Obj] = where
		}
	}

	n.runSplices(jobs)
	return nil
}

// procSplice is every group's splice jobs for one process table, coalesced
// so the table is sized exactly once however many groups touch it: an
// upper-level process (the root above all) collects jobs from every group
// under it, and growing its slab one group at a time would leave it up to a
// quarter larger than its rows.
type procSplice struct {
	pr   *Process
	jobs []spliceJob
}

// runSplices executes the queued splices, one combined batch per process.
func (n *Network) runSplices(jobs []spliceJob) {
	order := make(map[*Process]int)
	var procs []procSplice
	for _, j := range jobs {
		i, ok := order[j.pr]
		if !ok {
			i = len(procs)
			order[j.pr] = i
			procs = append(procs, procSplice{pr: j.pr})
		}
		procs[i].jobs = append(procs[i].jobs, j)
	}
	for _, p := range procs {
		p.run()
	}
}

// run clones each job's leader vector once per follower and inserts all the
// rows into the process table as one batch. The templates are settled —
// no armed timers, no held finds (asserted at collection) — so a clone is
// the template under the follower's id, exactly as a sequential attach
// would have left it.
func (p procSplice) run() {
	total := 0
	for _, j := range p.jobs {
		total += len(j.objs)
	}
	rows := make([]objState, 0, total)
	for _, j := range p.jobs {
		for _, obj := range j.objs {
			row := j.tmpl
			row.obj = obj
			rows = append(rows, row)
		}
	}
	p.pr.objs.insertBatch(rows)
}
