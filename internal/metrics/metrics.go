// Package metrics accounts for the quantities the paper's theorems bound:
// communication work (messages weighted by the hop distance they travel in
// the region graph), virtual-time latencies of operations, and — because
// the theorems quantify over executions with failures — where messages are
// delivered or die. Experiment drivers take snapshots of the ledger around
// an operation to attribute work to it; latency samples go into
// log-bucketed histograms so full distributions (p50/p90/p99/max), not
// just extremes, can be checked against the proved bounds.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// DropCause names why a transport discarded a message instead of
// delivering it. Chaos runs use these to attribute 100% of lost messages.
type DropCause string

const (
	// DropIncarnation: the destination VSA's incarnation changed between
	// send and arrival (TOBcast delivers to a process that no longer
	// exists).
	DropIncarnation DropCause = "incarnation"
	// DropDeadVSA: the destination VSA was failed at arrival time
	// (DeliverToVSA returned false).
	DropDeadVSA DropCause = "dead-vsa"
	// DropDeadClient: the destination client was failed or out of the
	// region at arrival time (DeliverToClient returned false).
	DropDeadClient DropCause = "dead-client"
	// DropNoRoute: geocast found no live next hop toward the destination.
	DropNoRoute DropCause = "no-route"
	// DropLoss: a chaos loss predicate discarded the message in flight.
	DropLoss DropCause = "loss"
	// DropSenderDead: a relay hop could not be sent because the forwarding
	// VSA was failed.
	DropSenderDead DropCause = "sender-dead"
	// DropVSAReset: a message held in VSA memory (cgcast delivery schedule)
	// died when the holding VSA failed or reset.
	DropVSAReset DropCause = "vsa-reset"
	// DropUnknownKind: a networked host received a frame whose kind is not
	// in its alphabet.
	DropUnknownKind DropCause = "unknown-kind"
)

// Ledger accumulates message counts, hop-work, delivery/drop counters, and
// latency histograms, each under a free-form kind/name. It is not safe for
// concurrent use; the simulation is single-threaded.
//
// The three per-message counters live in one row per kind, and a kind is
// interned once (Ledger.Kind) into a handle whose records are an indexed
// add, so a transport that resolves its kinds at construction neither
// hashes nor allocates per message. The string methods are wrappers over the
// same rows. Each counter column of a row carries a touched bit: a kind
// appears in Snapshot, Export, Kinds and String under a column exactly when
// something was recorded into that column since the last Reset — adding
// zero hop-work counts, interning alone does not — which is when a map keyed
// by kind would hold the key. Drops and latencies are cold and stay keyed by
// name.
type Ledger struct {
	rows  []kindRow
	index map[string]int32
	drops map[string]map[DropCause]int64
	lat   map[string]*Histogram
}

// kindRow is one kind's counters and the touched bit of each.
type kindRow struct {
	name      string
	msgs      int64
	work      int64
	delivered int64
	touched   uint8
}

const (
	touchedMsgs uint8 = 1 << iota
	touchedWork
	touchedDelivered
)

// Kind is a handle to one kind's row of one ledger. It stays valid across
// Reset. The zero Kind — what a nil ledger hands out — records nothing, so
// a transport built without accounting needs no checks of its own.
type Kind struct {
	l *Ledger
	i int32
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{
		index: make(map[string]int32),
		drops: make(map[string]map[DropCause]int64),
		lat:   make(map[string]*Histogram),
	}
}

// Kind interns name and returns its handle. Interning records nothing: the
// kind stays out of every output until something is recorded under it. A nil
// ledger returns the zero Kind.
func (l *Ledger) Kind(name string) Kind {
	if l == nil {
		return Kind{}
	}
	i, ok := l.index[name]
	if !ok {
		i = int32(len(l.rows))
		l.rows = append(l.rows, kindRow{name: name})
		l.index[name] = i
	}
	return Kind{l: l, i: i}
}

// row returns the row recorded under kind, or nil when nothing has interned
// it; readers use it so that a query leaves the ledger as it was.
func (l *Ledger) row(kind string) *kindRow {
	if i, ok := l.index[kind]; ok {
		return &l.rows[i]
	}
	return nil
}

// intern returns the row recorded under kind, interning it first. The
// pointer is good until the next kind is interned.
func (l *Ledger) intern(kind string) *kindRow {
	i := l.Kind(kind).i
	return &l.rows[i]
}

// Message charges one message traveling hops region hops, as RecordMessage.
func (k Kind) Message(hops int) {
	if k.l == nil {
		return
	}
	r := &k.l.rows[k.i]
	r.msgs++
	r.work += int64(hops)
	r.touched |= touchedMsgs | touchedWork
}

// Work charges hop-work without counting a message, as AddWork.
func (k Kind) Work(hops int) {
	if k.l == nil {
		return
	}
	r := &k.l.rows[k.i]
	r.work += int64(hops)
	r.touched |= touchedWork
}

// Delivery counts one message reaching its destination, as RecordDelivery.
func (k Kind) Delivery() {
	if k.l == nil {
		return
	}
	r := &k.l.rows[k.i]
	r.delivered++
	r.touched |= touchedDelivered
}

// Drop counts one message dying for the given cause, as RecordDrop.
func (k Kind) Drop(cause DropCause) {
	if k.l == nil {
		return
	}
	k.l.RecordDrop(k.l.rows[k.i].name, cause)
}

// RecordMessage charges one message of the given kind traveling hops region
// hops. Zero-hop messages (local delivery) still count as one message.
func (l *Ledger) RecordMessage(kind string, hops int) { l.Kind(kind).Message(hops) }

// AddWork charges hop-work under kind without counting a message. Transports
// that learn a message's true travel distance incrementally (geocast charges
// each hop as it is taken) record the message once and add work as it
// accrues.
func (l *Ledger) AddWork(kind string, hops int) { l.Kind(kind).Work(hops) }

// RecordDelivery counts one message of the given kind reaching its
// destination automaton. Together with RecordDrop it makes transport
// accounting conserve: for point-to-point kinds,
// sent == delivered + dropped once the queue drains.
func (l *Ledger) RecordDelivery(kind string) { l.Kind(kind).Delivery() }

// RecordDrop counts one message of the given kind dying for the given
// cause instead of being delivered.
func (l *Ledger) RecordDrop(kind string, cause DropCause) {
	m, ok := l.drops[kind]
	if !ok {
		m = make(map[DropCause]int64)
		l.drops[kind] = m
	}
	m[cause]++
}

// Messages returns the number of messages recorded under kind.
func (l *Ledger) Messages(kind string) int64 {
	if r := l.row(kind); r != nil {
		return r.msgs
	}
	return 0
}

// Work returns the hop-work recorded under kind.
func (l *Ledger) Work(kind string) int64 {
	if r := l.row(kind); r != nil {
		return r.work
	}
	return 0
}

// Delivered returns the number of deliveries recorded under kind.
func (l *Ledger) Delivered(kind string) int64 {
	if r := l.row(kind); r != nil {
		return r.delivered
	}
	return 0
}

// Drops returns the number of drops recorded under kind for cause.
func (l *Ledger) Drops(kind string, cause DropCause) int64 {
	return l.drops[kind][cause]
}

// TotalMessages returns the message count across all kinds.
func (l *Ledger) TotalMessages() int64 {
	var n int64
	for i := range l.rows {
		n += l.rows[i].msgs
	}
	return n
}

// TotalWork returns the hop-work across all kinds.
func (l *Ledger) TotalWork() int64 {
	var n int64
	for i := range l.rows {
		n += l.rows[i].work
	}
	return n
}

// RecordLatency adds a latency sample under name.
func (l *Ledger) RecordLatency(name string, d time.Duration) {
	h, ok := l.lat[name]
	if !ok {
		h = NewHistogram()
		l.lat[name] = h
	}
	h.Add(int64(d))
}

// Latency returns the latency statistics recorded under name.
func (l *Ledger) Latency(name string) LatencyStats {
	h, ok := l.lat[name]
	if !ok {
		return LatencyStats{}
	}
	return statsFromHistogram(h)
}

// LatencyHistogram returns the underlying histogram recorded under name,
// or nil when no samples exist. The returned histogram is live; callers
// must not mutate it.
func (l *Ledger) LatencyHistogram(name string) *Histogram { return l.lat[name] }

// Kinds returns all message kinds seen so far, sorted.
func (l *Ledger) Kinds() []string {
	kinds := make([]string, 0, len(l.rows))
	for i := range l.rows {
		if r := &l.rows[i]; r.touched&touchedMsgs != 0 {
			kinds = append(kinds, r.name)
		}
	}
	sort.Strings(kinds)
	return kinds
}

// counters copies every touched counter into the three kind-keyed maps that
// Snapshot and Export share.
func (l *Ledger) counters() (msgs, work, delivered map[string]int64) {
	msgs = make(map[string]int64, len(l.rows))
	work = make(map[string]int64, len(l.rows))
	delivered = make(map[string]int64, len(l.rows))
	for i := range l.rows {
		r := &l.rows[i]
		if r.touched&touchedMsgs != 0 {
			msgs[r.name] = r.msgs
		}
		if r.touched&touchedWork != 0 {
			work[r.name] = r.work
		}
		if r.touched&touchedDelivered != 0 {
			delivered[r.name] = r.delivered
		}
	}
	return msgs, work, delivered
}

// Snapshot captures current totals; subtracting two snapshots attributes
// work to the interval between them.
func (l *Ledger) Snapshot() Snapshot {
	s := Snapshot{Drops: make(map[string]map[DropCause]int64, len(l.drops))}
	s.MsgCount, s.HopWork, s.Delivered = l.counters()
	for k, m := range l.drops {
		cm := make(map[DropCause]int64, len(m))
		for c, v := range m {
			cm[c] = v
		}
		s.Drops[k] = cm
	}
	return s
}

// addCounters adds times copies of a set of kind-keyed counters into the
// rows. Every key present touches its column, zero-valued or not.
func (l *Ledger) addCounters(msgs, work, delivered map[string]int64, times int64) {
	for k, v := range msgs {
		r := l.intern(k)
		r.msgs += v * times
		r.touched |= touchedMsgs
	}
	for k, v := range work {
		r := l.intern(k)
		r.work += v * times
		r.touched |= touchedWork
	}
	for k, v := range delivered {
		r := l.intern(k)
		r.delivered += v * times
		r.touched |= touchedDelivered
	}
}

// AddSnapshot merges a snapshot delta into the ledger, scaled by times.
// Bulk operations that execute one representative's work and account the
// rest by multiplication (tracker bulk attach: one grow cascade per distinct
// start region stands in for every object placed there) use it to keep the
// ledger identical to having run each operation individually. Latency
// histograms are untouched — only counters merge.
func (l *Ledger) AddSnapshot(diff Snapshot, times int64) {
	if times == 0 {
		return
	}
	l.addCounters(diff.MsgCount, diff.HopWork, diff.Delivered, times)
	for k, m := range diff.Drops {
		for c, v := range m {
			dm, ok := l.drops[k]
			if !ok {
				dm = make(map[DropCause]int64)
				l.drops[k] = dm
			}
			dm[c] += v * times
		}
	}
}

// Merge folds every record of o into l: message counts, hop work,
// delivery and drop-cause counters add, and latency histograms merge
// bucket-wise. All of those operations are associative and commutative,
// so folding K shard-local ledgers in any grouping or order produces the
// same ledger — and, for programs whose recording calls commute (disjoint
// objects, disjoint regions), the same ledger a single shared instance
// would have accumulated. This is the parallel-tracker contract: each
// shard records into its own ledger with no mutex on the hot path, and
// the merged result is compared byte-for-byte (via Export) against the
// shared-ledger run. Rows are matched by name, never by handle: a handle
// belongs to the ledger that interned it. A nil o is a no-op; o itself is
// not modified.
func (l *Ledger) Merge(o *Ledger) {
	if o == nil {
		return
	}
	for i := range o.rows {
		src := &o.rows[i]
		if src.touched == 0 {
			continue
		}
		dst := l.intern(src.name)
		dst.msgs += src.msgs
		dst.work += src.work
		dst.delivered += src.delivered
		dst.touched |= src.touched
	}
	for k, m := range o.drops {
		dm, ok := l.drops[k]
		if !ok {
			dm = make(map[DropCause]int64, len(m))
			l.drops[k] = dm
		}
		for c, v := range m {
			dm[c] += v
		}
	}
	for k, h := range o.lat {
		dst, ok := l.lat[k]
		if !ok {
			dst = NewHistogram()
			l.lat[k] = dst
		}
		dst.Merge(h)
	}
}

// MergedSnapshot folds the given shard-local ledgers into one counter
// snapshot without mutating any of them. For the full state including
// histograms, Merge into a fresh ledger and Export it.
func MergedSnapshot(ledgers ...*Ledger) Snapshot {
	m := NewLedger()
	for _, l := range ledgers {
		m.Merge(l)
	}
	return m.Snapshot()
}

// Reset clears all recorded data. Interned kinds keep their rows, zeroed and
// untouched, so handles taken before the reset stay valid.
func (l *Ledger) Reset() {
	for i := range l.rows {
		l.rows[i] = kindRow{name: l.rows[i].name}
	}
	l.drops = make(map[string]map[DropCause]int64)
	l.lat = make(map[string]*Histogram)
}

// String renders a human-readable summary, one kind per line.
func (l *Ledger) String() string {
	var b strings.Builder
	for _, k := range l.Kinds() {
		r := l.row(k)
		fmt.Fprintf(&b, "%-14s msgs=%-8d work=%d", k, r.msgs, r.work)
		if r.delivered != 0 {
			fmt.Fprintf(&b, " delivered=%d", r.delivered)
		}
		if m := l.drops[k]; len(m) > 0 {
			causes := make([]string, 0, len(m))
			for c := range m {
				causes = append(causes, string(c))
			}
			sort.Strings(causes)
			for _, c := range causes {
				fmt.Fprintf(&b, " drop[%s]=%d", c, m[DropCause(c)])
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-14s msgs=%-8d work=%d", "TOTAL", l.TotalMessages(), l.TotalWork())
	return b.String()
}

// Export returns the full ledger state in the machine-readable form used
// by the -json experiment flag. Latency histograms are cloned, so the
// export is immune to later recording.
func (l *Ledger) Export() *Export {
	e := &Export{
		Drops:   map[string]map[string]int64{},
		Latency: map[string]*Histogram{},
	}
	e.MsgCount, e.HopWork, e.Delivered = l.counters()
	for k, m := range l.drops {
		cm := make(map[string]int64, len(m))
		for c, v := range m {
			cm[string(c)] = v
		}
		e.Drops[k] = cm
	}
	for k, h := range l.lat {
		e.Latency[k] = h.Clone()
	}
	return e
}

// Export is the JSON-stable ledger form written by -json. All maps are
// keyed by kind; Drops is kind → cause → count.
type Export struct {
	MsgCount  map[string]int64            `json:"messages"`
	HopWork   map[string]int64            `json:"work"`
	Delivered map[string]int64            `json:"delivered"`
	Drops     map[string]map[string]int64 `json:"drops"`
	Latency   map[string]*Histogram       `json:"latency"`
}

// Snapshot is a point-in-time copy of the ledger's counters.
type Snapshot struct {
	MsgCount  map[string]int64
	HopWork   map[string]int64
	Delivered map[string]int64
	Drops     map[string]map[DropCause]int64
}

// TotalMessages returns the message count across all kinds in the snapshot.
func (s Snapshot) TotalMessages() int64 {
	var n int64
	for _, v := range s.MsgCount {
		n += v
	}
	return n
}

// TotalWork returns the hop-work across all kinds in the snapshot.
func (s Snapshot) TotalWork() int64 {
	var n int64
	for _, v := range s.HopWork {
		n += v
	}
	return n
}

// TotalDrops returns the drop count across all kinds and causes.
func (s Snapshot) TotalDrops() int64 {
	var n int64
	for _, m := range s.Drops {
		for _, v := range m {
			n += v
		}
	}
	return n
}

// DropsByCause sums drops for kind across causes; an empty kind sums every
// kind.
func (s Snapshot) DropsByCause(kind string) map[DropCause]int64 {
	out := make(map[DropCause]int64)
	for k, m := range s.Drops {
		if kind != "" && k != kind {
			continue
		}
		for c, v := range m {
			out[c] += v
		}
	}
	return out
}

// Sub returns the per-kind difference s - earlier.
func (s Snapshot) Sub(earlier Snapshot) Snapshot {
	d := Snapshot{
		MsgCount:  make(map[string]int64),
		HopWork:   make(map[string]int64),
		Delivered: make(map[string]int64),
		Drops:     make(map[string]map[DropCause]int64),
	}
	for k, v := range s.MsgCount {
		if dv := v - earlier.MsgCount[k]; dv != 0 {
			d.MsgCount[k] = dv
		}
	}
	for k, v := range s.HopWork {
		if dv := v - earlier.HopWork[k]; dv != 0 {
			d.HopWork[k] = dv
		}
	}
	for k, v := range s.Delivered {
		if dv := v - earlier.Delivered[k]; dv != 0 {
			d.Delivered[k] = dv
		}
	}
	for k, m := range s.Drops {
		for c, v := range m {
			if dv := v - earlier.Drops[k][c]; dv != 0 {
				cm, ok := d.Drops[k]
				if !ok {
					cm = make(map[DropCause]int64)
					d.Drops[k] = cm
				}
				cm[c] = dv
			}
		}
	}
	return d
}

// LatencyStats summarizes latency samples under one name, including the
// distribution percentiles derived from the underlying histogram.
type LatencyStats struct {
	Count int64
	Min   time.Duration
	Max   time.Duration
	Total time.Duration
	P50   time.Duration
	P90   time.Duration
	P99   time.Duration
}

// Mean returns the average latency, or zero when no samples exist.
func (s LatencyStats) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Count)
}

func statsFromHistogram(h *Histogram) LatencyStats {
	return LatencyStats{
		Count: h.Count(),
		Min:   time.Duration(h.Min()),
		Max:   time.Duration(h.Max()),
		Total: time.Duration(h.Total()),
		P50:   h.QuantileDuration(0.50),
		P90:   h.QuantileDuration(0.90),
		P99:   h.QuantileDuration(0.99),
	}
}
