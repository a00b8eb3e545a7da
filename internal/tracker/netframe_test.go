package tracker

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"vinestalk/internal/cgcast"
	"vinestalk/internal/geo"
	"vinestalk/internal/hier"
	"vinestalk/internal/nethost"
	"vinestalk/internal/sim"
	"vinestalk/internal/vsa"
)

// refFrame is how the networked host built a frame before each message was
// written into its frame's buffer: the message encoded on its own, then
// copied behind the header. It is frozen here, byte layout and all, as the
// reference the wire must keep matching (no version bump was made).
func refFrame(to geo.RegionID, due sim.Time, from hier.ClusterID, fromRegion geo.RegionID, level int, obj ObjectID, kind string, arg int32, ps []FindPayload) []byte {
	var msg []byte
	msg = binary.BigEndian.AppendUint16(msg, 1)
	msg = binary.BigEndian.AppendUint32(msg, uint32(int32(from)))
	msg = binary.BigEndian.AppendUint32(msg, uint32(int32(fromRegion)))
	msg = binary.BigEndian.AppendUint16(msg, uint16(level))
	msg = binary.BigEndian.AppendUint32(msg, uint32(int32(obj)))
	switch kind {
	case KindFind, KindFound:
		msg = binary.BigEndian.AppendUint16(msg, uint16(len(ps)))
		for _, p := range ps {
			msg = binary.BigEndian.AppendUint64(msg, uint64(p.ID))
			msg = binary.BigEndian.AppendUint32(msg, uint32(int32(p.Origin)))
		}
	case KindFindAck, KindRefresh:
		msg = binary.BigEndian.AppendUint32(msg, uint32(arg))
	}
	var frame []byte
	frame = binary.BigEndian.AppendUint32(frame, uint32(to))
	frame = binary.BigEndian.AppendUint64(frame, uint64(due))
	frame = binary.BigEndian.AppendUint16(frame, uint16(len(kind)))
	frame = append(frame, kind...)
	return append(frame, msg...)
}

// captureTransport records every frame sent and delivers none.
type captureTransport struct {
	mu     sync.Mutex
	frames [][]byte
	to     []geo.RegionID
}

func (c *captureTransport) Start(func([]byte)) error { return nil }
func (c *captureTransport) Close() error             { return nil }
func (c *captureTransport) Send(to geo.RegionID, frame []byte) error {
	c.mu.Lock()
	c.frames = append(c.frames, frame)
	c.to = append(c.to, to)
	c.mu.Unlock()
	return nil
}

func (c *captureTransport) take() ([][]byte, []geo.RegionID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, to := c.frames, c.to
	c.frames, c.to = nil, nil
	return f, to
}

// TestNetFramesMatchTheReferenceEncoding pins the wire: for every message
// kind — a process's send of each, a found's fan-out, and a client's grow,
// shrink, find and refresh — the frames the node's outlet hands the
// transport are byte for byte the reference encoding's, to the same
// regions.
func TestNetFramesMatchTheReferenceEncoding(t *testing.T) {
	h := hier.MustGrid(geo.MustGridTiling(4, 4), 2)
	geom := hier.MeasureGeometry(h)
	nh, err := NewNetHost(h, NetConfig{Geom: geom, Delta: netTestDelta, Unit: netTestUnit})
	if err != nil {
		t.Fatal(err)
	}
	tr := &captureTransport{}
	svc, err := nethost.New(nh, nethost.Config{NumRegions: h.Tiling().NumRegions(), Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	nh.Attach(svc)
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Stop)

	const (
		u   = geo.RegionID(5)
		obj = ObjectID(77)
	)
	c0 := h.Cluster(u, 0) // headed at u, as the sender of a process's send is
	finds := []FindPayload{{ID: 42, Origin: 5}, {ID: -1, Origin: -1}}
	// run calls step on u's node and returns what it sent, with the node's
	// Now during the call.
	run := func(step func(o netOutlet, n *nethost.Node)) ([][]byte, []geo.RegionID, sim.Time) {
		var now sim.Time
		done := make(chan struct{})
		if err := svc.Inject(u, func(n *nethost.Node) {
			now = n.Now()
			step(netOutlet{nh: nh, n: n}, n)
			close(done)
		}); err != nil {
			t.Fatal(err)
		}
		<-done
		f, dst := tr.take()
		return f, dst, now
	}
	check := func(name string, got [][]byte, gotTo []geo.RegionID, want [][]byte, wantTo []geo.RegionID) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d frames, want %d", name, len(got), len(want))
		}
		for i := range want {
			if gotTo[i] != wantTo[i] || !bytes.Equal(got[i], want[i]) {
				t.Errorf("%s frame %d to %v:\n got  %x\n want %x (to %v)", name, i, gotTo[i], got[i], want[i], wantTo[i])
			}
		}
	}

	for k := kindGrow; int(k) < len(kindNames); k++ {
		if k == kindFound {
			continue // a process sends found as a fan-out, below
		}
		// To a neighbour at level 0 and to the parent at level 1.
		for _, to := range []hier.ClusterID{h.Nbrs(c0)[0], h.Parent(c0)} {
			body := bodyFor(obj)
			switch k {
			case kindFind:
				body = findsBody(obj, finds)
			case kindFindAck:
				body.Arg = int32(to)
			case kindRefresh:
				body.Arg = 3
			}
			e := sendEffect{From: c0, Kind: k, To: to, Body: body}
			got, gotTo, now := run(func(o netOutlet, _ *nethost.Node) { o.send(u, e) })
			due := now + cgcast.ScheduleDelayIn(h, geom, netTestUnit, c0, to)
			head := h.Head(to)
			check(fmt.Sprintf("%s to level %d", k, h.Level(to)), got, gotTo,
				[][]byte{refFrame(head, due, c0, u, h.Level(to), obj, k.String(), body.Arg, findsOf(&body))},
				[]geo.RegionID{head})
		}
	}

	got, gotTo, now := run(func(o netOutlet, _ *nethost.Node) {
		o.found(u, foundEffect{From: c0, Obj: obj, Payloads: finds})
	})
	var want [][]byte
	var wantTo []geo.RegionID
	for _, target := range append([]geo.RegionID{u}, h.Tiling().Neighbors(u)...) {
		want = append(want, refFrame(target, now+netTestUnit, c0, u, 0, obj, KindFound, 0, finds))
		wantTo = append(wantTo, target)
	}
	check("found fan-out", got, gotTo, want, wantTo)

	for _, kind := range []string{KindGrow, KindShrink, KindFind, KindRefresh} {
		var ps []FindPayload
		if kind == KindFind {
			ps = finds[:1]
		}
		got, gotTo, now := run(func(_ netOutlet, n *nethost.Node) { nh.clientSend(n, obj, kind, ps) })
		check("client "+kind, got, gotTo,
			[][]byte{refFrame(u, now+netTestDelta, hier.NoCluster, u, 0, obj, kind, 0, ps)},
			[]geo.RegionID{u})
	}
}

// probeApp is a NetHost whose automatons do nothing on Deliver, and whose
// DeliverFrame signals once the NetHost's has returned: the frame path
// alone, from a node's outlet to Deliver at the destination.
type probeApp struct {
	*NetHost
	delivered chan struct{}
}

type probeAutomaton struct{}

func (probeAutomaton) Deliver(_ geo.RegionID, _ int, msg any) {
	if d, ok := msg.(*cgcast.Delivery); !ok || d.Kind == "" {
		panic(fmt.Sprintf("Deliver given %T", msg))
	}
}
func (probeAutomaton) TimerFire(geo.RegionID, vsa.TimerID, sim.Time) {}
func (probeAutomaton) ResetRegion(geo.RegionID)                      {}
func (probeAutomaton) EncodeRegion(geo.RegionID) []byte              { return nil }
func (probeAutomaton) DecodeRegion(geo.RegionID, []byte) error       { return nil }

func (p *probeApp) NewAutomaton(geo.RegionID, vsa.Host) vsa.Automaton { return probeAutomaton{} }

func (p *probeApp) DeliverFrame(n *nethost.Node, kind string, payload []byte) {
	p.NetHost.DeliverFrame(n, kind, payload)
	p.delivered <- struct{}{}
}

// TestNetFramePathAllocatesOnlyTheFrame: a protocol message of every kind,
// from the sending node's outlet through ChanTransport, Receive, the hold
// queue, the mailbox and DeliverFrame's decode to Deliver at the
// destination, costs at most one allocation per frame — its buffer.
func TestNetFramePathAllocatesOnlyTheFrame(t *testing.T) {
	h := hier.MustGrid(geo.MustGridTiling(4, 4), 2)
	geom := hier.MeasureGeometry(h)
	// A short unit keeps each round trip through the hold queue brief.
	nh, err := NewNetHost(h, NetConfig{Geom: geom, Delta: 50 * time.Microsecond, Unit: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	app := &probeApp{NetHost: nh, delivered: make(chan struct{})}
	svc, err := nethost.New(app, nethost.Config{NumRegions: h.Tiling().NumRegions()})
	if err != nil {
		t.Fatal(err)
	}
	nh.Attach(svc)
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Stop)

	const (
		u   = geo.RegionID(5)
		obj = ObjectID(3)
	)
	c0 := h.Cluster(u, 0)
	finds := []FindPayload{{ID: 42, Origin: 5}, {ID: 43, Origin: 6}}
	for k := kindGrow; int(k) < len(kindNames); k++ {
		var step func(*nethost.Node)
		frames := 1
		if k == kindFound {
			e := foundEffect{From: c0, Obj: obj, Payloads: finds}
			step = func(n *nethost.Node) { netOutlet{nh: nh, n: n}.found(u, e) }
			frames += len(h.Tiling().Neighbors(u))
		} else {
			body := bodyFor(obj)
			switch k {
			case kindFind:
				body = findsBody(obj, finds)
			case kindFindAck, kindRefresh:
				body.Arg = 2
			}
			e := sendEffect{From: c0, Kind: k, To: h.Nbrs(c0)[0], Body: body}
			step = func(n *nethost.Node) { netOutlet{nh: nh, n: n}.send(u, e) }
		}
		round := func() {
			if err := svc.Inject(u, step); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < frames; i++ {
				<-app.delivered
			}
		}
		round()
		allocs := testing.AllocsPerRun(200, round)
		t.Logf("%s: %.2f allocations for %d frame(s)", k, allocs, frames)
		if allocs > float64(frames) {
			t.Errorf("%s: %.2f allocations for %d frame(s), want at most one a frame", k, allocs, frames)
		}
	}
}

// TestPendingFindSurvivesTheNextDecode: DeliverFrame decodes every frame
// into scratch the node keeps, so what a process holds must be its own
// copy. A find held pending at a process is unchanged after the next
// find frame's decode reuses that scratch.
func TestPendingFindSurvivesTheNextDecode(t *testing.T) {
	nh, svc := startNetHost(t, NetConfig{})
	const (
		u    = geo.RegionID(5)
		objA = ObjectID(11)
		objB = ObjectID(12)
	)
	c0 := nh.h.Cluster(u, 0)
	frame := func(obj ObjectID, p FindPayload) []byte {
		b, err := EncodeClusterMsg(hier.NoCluster, u, 0, obj, KindFind, []FindPayload{p})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	pA, pB := FindPayload{ID: 1, Origin: 2}, FindPayload{ID: 99, Origin: 9}
	first, second := frame(objA, pA), frame(objB, pB)
	held := make(chan [2][]FindPayload, 1)
	if err := svc.Inject(u, func(n *nethost.Node) {
		nh.DeliverFrame(n, KindFind, first)
		nh.DeliverFrame(n, KindFind, second)
		pr := n.Automaton().(*Automaton).procs[c0]
		held <- [2][]FindPayload{append([]FindPayload(nil), pr.pending[objA]...), append([]FindPayload(nil), pr.pending[objB]...)}
	}); err != nil {
		t.Fatal(err)
	}
	got := <-held
	if len(got[0]) != 1 || got[0][0] != pA {
		t.Errorf("pending finds of object %v after the next decode: %v, want [%v]", objA, got[0], pA)
	}
	if len(got[1]) != 1 || got[1][0] != pB {
		t.Errorf("pending finds of object %v: %v, want [%v]", objB, got[1], pB)
	}
}
