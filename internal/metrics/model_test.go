package metrics

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// mapLedger is the ledger as it was before kinds were interned — five maps
// keyed by kind or name, a key existing exactly when something was recorded
// under it — kept as the reference model: the row-and-touched-bit Ledger must
// be indistinguishable from it through every output.
type mapLedger struct {
	msgCount  map[string]int64
	hopWork   map[string]int64
	delivered map[string]int64
	drops     map[string]map[DropCause]int64
	lat       map[string]*Histogram
}

func newMapLedger() *mapLedger {
	return &mapLedger{
		msgCount:  make(map[string]int64),
		hopWork:   make(map[string]int64),
		delivered: make(map[string]int64),
		drops:     make(map[string]map[DropCause]int64),
		lat:       make(map[string]*Histogram),
	}
}

func (l *mapLedger) RecordMessage(kind string, hops int) {
	l.msgCount[kind]++
	l.hopWork[kind] += int64(hops)
}

func (l *mapLedger) AddWork(kind string, hops int) {
	l.hopWork[kind] += int64(hops)
}

func (l *mapLedger) RecordDelivery(kind string) {
	l.delivered[kind]++
}

func (l *mapLedger) RecordDrop(kind string, cause DropCause) {
	m, ok := l.drops[kind]
	if !ok {
		m = make(map[DropCause]int64)
		l.drops[kind] = m
	}
	m[cause]++
}

func (l *mapLedger) Messages(kind string) int64 { return l.msgCount[kind] }

func (l *mapLedger) Work(kind string) int64 { return l.hopWork[kind] }

func (l *mapLedger) Delivered(kind string) int64 { return l.delivered[kind] }

func (l *mapLedger) TotalMessages() int64 {
	var n int64
	for _, v := range l.msgCount {
		n += v
	}
	return n
}

func (l *mapLedger) TotalWork() int64 {
	var n int64
	for _, v := range l.hopWork {
		n += v
	}
	return n
}

func (l *mapLedger) RecordLatency(name string, d time.Duration) {
	h, ok := l.lat[name]
	if !ok {
		h = NewHistogram()
		l.lat[name] = h
	}
	h.Add(int64(d))
}

func (l *mapLedger) Kinds() []string {
	kinds := make([]string, 0, len(l.msgCount))
	for k := range l.msgCount {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

func (l *mapLedger) Snapshot() Snapshot {
	s := Snapshot{
		MsgCount:  make(map[string]int64, len(l.msgCount)),
		HopWork:   make(map[string]int64, len(l.hopWork)),
		Delivered: make(map[string]int64, len(l.delivered)),
		Drops:     make(map[string]map[DropCause]int64, len(l.drops)),
	}
	for k, v := range l.msgCount {
		s.MsgCount[k] = v
	}
	for k, v := range l.hopWork {
		s.HopWork[k] = v
	}
	for k, v := range l.delivered {
		s.Delivered[k] = v
	}
	for k, m := range l.drops {
		cm := make(map[DropCause]int64, len(m))
		for c, v := range m {
			cm[c] = v
		}
		s.Drops[k] = cm
	}
	return s
}

func (l *mapLedger) AddSnapshot(diff Snapshot, times int64) {
	if times == 0 {
		return
	}
	for k, v := range diff.MsgCount {
		l.msgCount[k] += v * times
	}
	for k, v := range diff.HopWork {
		l.hopWork[k] += v * times
	}
	for k, v := range diff.Delivered {
		l.delivered[k] += v * times
	}
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

func (l *mapLedger) Merge(o *mapLedger) {
	if o == nil {
		return
	}
	for k, v := range o.msgCount {
		l.msgCount[k] += v
	}
	for k, v := range o.hopWork {
		l.hopWork[k] += v
	}
	for k, v := range o.delivered {
		l.delivered[k] += v
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

func (l *mapLedger) Reset() {
	l.msgCount = make(map[string]int64)
	l.hopWork = make(map[string]int64)
	l.delivered = make(map[string]int64)
	l.drops = make(map[string]map[DropCause]int64)
	l.lat = make(map[string]*Histogram)
}

func (l *mapLedger) String() string {
	var b strings.Builder
	for _, k := range l.Kinds() {
		fmt.Fprintf(&b, "%-14s msgs=%-8d work=%d", k, l.msgCount[k], l.hopWork[k])
		if d := l.delivered[k]; d != 0 {
			fmt.Fprintf(&b, " delivered=%d", d)
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

func (l *mapLedger) Export() *Export {
	e := &Export{
		MsgCount:  map[string]int64{},
		HopWork:   map[string]int64{},
		Delivered: map[string]int64{},
		Drops:     map[string]map[string]int64{},
		Latency:   map[string]*Histogram{},
	}
	for k, v := range l.msgCount {
		e.MsgCount[k] = v
	}
	for k, v := range l.hopWork {
		e.HopWork[k] = v
	}
	for k, v := range l.delivered {
		e.Delivered[k] = v
	}
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

// ledgerPair applies one operation to the ledger and to the model.
type ledgerPair struct {
	l *Ledger
	m *mapLedger
	// handles interned so far on l, by name; the model has no counterpart:
	// interning must not show.
	handles map[string]Kind
}

func newLedgerPair() *ledgerPair {
	return &ledgerPair{l: NewLedger(), m: newMapLedger(), handles: map[string]Kind{}}
}

func (p *ledgerPair) handle(kind string) Kind {
	k, ok := p.handles[kind]
	if !ok {
		k = p.l.Kind(kind)
		p.handles[kind] = k
	}
	return k
}

// step applies one random record, through the string API or a handle.
func (p *ledgerPair) step(rng *rand.Rand, kinds []string) {
	kind := kinds[rng.Intn(len(kinds))]
	viaHandle := rng.Intn(2) == 0
	switch rng.Intn(6) {
	case 0:
		hops := rng.Intn(9)
		if viaHandle {
			p.handle(kind).Message(hops)
		} else {
			p.l.RecordMessage(kind, hops)
		}
		p.m.RecordMessage(kind, hops)
	case 1:
		hops := rng.Intn(3) // zero often: AddWork(k, 0) makes the key exist
		if viaHandle {
			p.handle(kind).Work(hops)
		} else {
			p.l.AddWork(kind, hops)
		}
		p.m.AddWork(kind, hops)
	case 2:
		if viaHandle {
			p.handle(kind).Delivery()
		} else {
			p.l.RecordDelivery(kind)
		}
		p.m.RecordDelivery(kind)
	case 3:
		cause := []DropCause{DropLoss, DropDeadVSA, DropNoRoute}[rng.Intn(3)]
		if viaHandle {
			p.handle(kind).Drop(cause)
		} else {
			p.l.RecordDrop(kind, cause)
		}
		p.m.RecordDrop(kind, cause)
	case 4:
		d := time.Duration(1+rng.Intn(1_000_000)) * time.Microsecond
		name := []string{"move", "find"}[rng.Intn(2)]
		p.l.RecordLatency(name, d)
		p.m.RecordLatency(name, d)
	case 5:
		p.handle(kind) // interned, nothing recorded: must stay absent
	}
}

func (p *ledgerPair) check(t *testing.T, when string) {
	t.Helper()
	if got, want := p.l.Snapshot(), p.m.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Snapshot\n got  %+v\n want %+v", when, got, want)
	}
	if got, want := p.l.Kinds(), p.m.Kinds(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Kinds\n got  %q\n want %q", when, got, want)
	}
	if got, want := p.l.String(), p.m.String(); got != want {
		t.Fatalf("%s: String\n got:\n%s\n want:\n%s", when, got, want)
	}
	got, err := json.Marshal(p.l.Export())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(p.m.Export())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("%s: Export JSON\n got  %s\n want %s", when, got, want)
	}
	if p.l.TotalMessages() != p.m.TotalMessages() || p.l.TotalWork() != p.m.TotalWork() {
		t.Fatalf("%s: totals %d/%d, want %d/%d", when, p.l.TotalMessages(), p.l.TotalWork(), p.m.TotalMessages(), p.m.TotalWork())
	}
	for name := range p.handles {
		if p.l.Messages(name) != p.m.Messages(name) || p.l.Work(name) != p.m.Work(name) || p.l.Delivered(name) != p.m.Delivered(name) {
			t.Fatalf("%s: per-kind getters of %q disagree", when, name)
		}
	}
}

// A random sequence of string- and handle-API records, AddSnapshot, Merge and
// Reset leaves the ledger and the five-map model with equal Snapshot, Kinds,
// String and exported JSON — including a kind that was interned and never
// recorded (absent everywhere), one that only ever had zero hop-work added
// (present in the work table alone), and handles taken before a Reset.
func TestLedgerMatchesMapModel(t *testing.T) {
	kinds := []string{"proto/grow", "proto/shrink", "transport/hop", "frame/cgcast", "transport/geocast", "proto/find"}
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 1))
		p := newLedgerPair()
		p.check(t, "empty")
		for op, n := 0, 50+rng.Intn(150); op < n; op++ {
			switch r := rng.Intn(40); {
			case r == 0:
				p.l.Reset()
				p.m.Reset()
			case r == 1:
				// A delta between two points of another run, scaled.
				q := newLedgerPair()
				for i := 0; i < 10; i++ {
					q.step(rng, kinds)
				}
				before := q.m.Snapshot()
				for i := 0; i < 10; i++ {
					q.step(rng, kinds)
				}
				q.check(t, "delta source")
				times := int64(rng.Intn(4)) // 0: a no-op by contract
				p.l.AddSnapshot(q.l.Snapshot().Sub(before), times)
				p.m.AddSnapshot(q.m.Snapshot().Sub(before), times)
				// A whole snapshot carries zero-valued keys, which a delta
				// drops: they must come into existence here too.
				p.l.AddSnapshot(q.l.Snapshot(), 1)
				p.m.AddSnapshot(q.m.Snapshot(), 1)
			case r == 2:
				q := newLedgerPair()
				for i, n := 0, rng.Intn(30); i < n; i++ {
					q.step(rng, kinds)
				}
				p.l.Merge(q.l)
				p.m.Merge(q.m)
			default:
				p.step(rng, kinds)
			}
			p.check(t, fmt.Sprintf("trial %d op %d", trial, op))
		}
	}
}

// The two cases the touched bits exist for, spelled out.
func TestLedgerInternedKindStaysAbsentUntilRecorded(t *testing.T) {
	l := NewLedger()
	idle, zero := l.Kind("proto/idle"), l.Kind("proto/zero")
	zero.Work(0)
	snap := l.Snapshot()
	if len(snap.MsgCount) != 0 || len(snap.Delivered) != 0 {
		t.Errorf("untouched columns hold keys: %+v", snap)
	}
	if _, ok := snap.HopWork["proto/zero"]; !ok || len(snap.HopWork) != 1 {
		t.Errorf("HopWork = %v, want exactly the zero-valued proto/zero", snap.HopWork)
	}
	if got := l.Kinds(); len(got) != 0 {
		t.Errorf("Kinds = %q before any message", got)
	}
	l.Reset()
	idle.Message(3) // a handle outlives Reset
	if got := l.Messages("proto/idle"); got != 1 || l.Work("proto/idle") != 3 {
		t.Errorf("record through a pre-Reset handle: msgs %d work %d", got, l.Work("proto/idle"))
	}
	if _, ok := l.Snapshot().HopWork["proto/zero"]; ok {
		t.Error("Reset left proto/zero's work column touched")
	}
	var none *Ledger
	none.Kind("x").Message(1) // a nil ledger's handle records nothing
	none.Kind("x").Drop(DropLoss)
}

// A record through a handle neither hashes nor allocates.
func TestLedgerHandleRecordsAllocateNothing(t *testing.T) {
	l := NewLedger()
	k := l.Kind("transport/hop")
	if allocs := testing.AllocsPerRun(1000, func() {
		k.Message(1)
		k.Work(1)
		k.Delivery()
	}); allocs != 0 {
		t.Errorf("handle records allocate %v times per message", allocs)
	}
}
