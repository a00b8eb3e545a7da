package tracker

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"vinestalk/internal/cgcast"
	"vinestalk/internal/evader"
	"vinestalk/internal/geo"
	"vinestalk/internal/geocast"
	"vinestalk/internal/hier"
	"vinestalk/internal/metrics"
	"vinestalk/internal/nethost"
	"vinestalk/internal/sim"
	"vinestalk/internal/trace"
	"vinestalk/internal/vbcast"
	"vinestalk/internal/vsa"
)

// The client script: one client, starting at scriptHome, and three objects,
// driven by a seeded list of inputs 10 ms apart. The heartbeat period is
// not a multiple of the spacing, so refresh ticks fall between inputs.
const (
	scriptHome    = geo.RegionID(5)
	scriptObjects = 3
	scriptSpacing = 10 * time.Millisecond
	scriptPeriod  = 37 * time.Millisecond
)

type clientOp uint8

const (
	opMove  clientOp = iota // obj leaves from and enters u
	opGPS                   // the client's GPS reports u: relocation, or a restart in place
	opFind                  // a find input for obj at the client
	opFound                 // a found broadcast for obj answering find id reaches the client
)

// clientStep is one input of the script, at instant at.
type clientStep struct {
	at   sim.Time
	op   clientOp
	obj  ObjectID
	from geo.RegionID
	u    geo.RegionID
	id   FindID
}

// clientScript draws a script of n inputs. It keeps the world the inputs
// describe consistent (a move leaves the region the object is in), and
// knows which finds are issued: a find for an object no move has placed is
// refused and takes no id. Founds answer issued finds, duplicates among
// them, as well as the next id, which nobody issued, and sometimes name
// another object than the find's.
func clientScript(seed int64, n int) []clientStep {
	rng := rand.New(rand.NewSource(seed))
	const regions = 16
	client := scriptHome
	pos := make(map[ObjectID]geo.RegionID)
	var findObj []ObjectID // findObj[id-1] is find id's object
	script := make([]clientStep, 0, n)
	for i := 0; i < n; i++ {
		st := clientStep{at: sim.Time(i+1) * scriptSpacing}
		switch r := rng.Intn(10); {
		case r < 4:
			st.op, st.obj = opMove, ObjectID(1+rng.Intn(scriptObjects))
			st.from = geo.NoRegion
			if at, ok := pos[st.obj]; ok {
				st.from = at
			}
			st.u = client
			if rng.Intn(2) == 0 {
				st.u = geo.RegionID(rng.Intn(regions))
			}
			if st.u == st.from {
				st.u = (st.u + 1) % regions
			}
			pos[st.obj] = st.u
		case r < 5:
			st.op, st.u = opGPS, client
			if rng.Intn(2) == 0 {
				st.u = geo.RegionID(rng.Intn(regions))
			}
			client = st.u
		case r < 7:
			st.op, st.obj = opFind, ObjectID(rng.Intn(scriptObjects+1))
			if _, placed := pos[st.obj]; placed {
				findObj = append(findObj, st.obj)
			}
		default:
			st.op, st.id = opFound, FindID(1+rng.Intn(len(findObj)+1))
			st.obj = ObjectID(1 + rng.Intn(scriptObjects))
			if int(st.id) <= len(findObj) && rng.Intn(4) > 0 {
				st.obj = findObj[st.id-1]
			}
		}
		script = append(script, st)
	}
	return script
}

// scriptHorizon is the end of the recorded window: after the last input,
// and on no tick's instant (ticks fall on whole milliseconds).
func scriptHorizon(script []clientStep) sim.Time {
	return script[len(script)-1].at + scriptSpacing/2 + time.Microsecond
}

// clientRun is what a host's client half output: its client sends as
// (kind, object, region, issue instant), its found outputs with the input
// that caused each, and its find records after each input. Instants count
// from the script's origin.
type clientRun struct {
	sends, founds, records []string
}

func sendLine(kind string, obj ObjectID, u geo.RegionID, at sim.Time) string {
	return fmt.Sprintf("%s obj %d region %d at %v", kind, obj, u, at)
}

func foundLine(step int, r FindResult) string { return fmt.Sprintf("input %d: %+v", step, r) }

// recordsLine lists the registry: its sequence and each outstanding find's
// issue instant, counted from origin, and FindDone for every id up to one
// past the sequence.
func recordsLine(r *findRegistry, origin sim.Time) string {
	ids := make([]FindID, 0, len(r.open))
	for id := range r.open {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	s := fmt.Sprintf("seq %d open", r.seq)
	for _, id := range ids {
		s += fmt.Sprintf(" %d@%v", id, r.open[id]-origin)
	}
	s += " done"
	for id := FindID(0); id <= r.seq+1; id++ {
		if r.done(id) {
			s += fmt.Sprintf(" %d", id)
		}
	}
	return s
}

func foundBody(st clientStep) cgcast.Body {
	return findsBody(st.obj, []FindPayload{{ID: st.id, Origin: geo.RegionID(st.id % 16)}})
}

// simClientHalf runs the script on an oracle-host Network with one client
// and no VSA alive (they never restart), so every client send is traced
// and then dropped, and nothing but the script reaches the client.
func simClientHalf(t *testing.T, script []clientStep) clientRun {
	k := sim.New(1)
	tiling := geo.MustGridTiling(4, 4)
	h := hier.MustGrid(tiling, 2)
	layer := vsa.NewLayer(k, tiling, vsa.WithTRestart(sim.Forever))
	ledger := metrics.NewLedger()
	vb := vbcast.New(k, layer, delta, lagE, ledger)
	gc := geocast.New(k, layer, h.Graph(), vb, ledger)
	geom := hier.MeasureGeometry(h)
	cg, err := cgcast.New(h, layer, gc, vb, geom, ledger)
	if err != nil {
		t.Fatal(err)
	}
	var out clientRun
	step := -1
	horizon := scriptHorizon(script)
	tr := trace.New(1)
	tr.Attach(func(e trace.Event) {
		if e.Kind == "send" && e.From == -1 && e.At < horizon {
			out.sends = append(out.sends, sendLine(e.Msg, ObjectID(e.Obj), geo.RegionID(e.Region), e.At))
		}
	})
	net, err := New(cg, geom, WithHeartbeat(scriptPeriod), WithTracer(tr),
		WithFoundCallback(func(r FindResult) { out.founds = append(out.founds, foundLine(step, r)) }))
	if err != nil {
		t.Fatal(err)
	}
	const id = vsa.ClientID(1)
	c, err := net.AddClient(id, scriptHome)
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[ObjectID]geo.RegionID)
	for obj := ObjectID(0); obj <= scriptObjects; obj++ {
		net.AttachObject(obj, func() geo.RegionID {
			if at, ok := pos[obj]; ok {
				return at
			}
			return geo.NoRegion
		})
	}
	for i, st := range script {
		k.At(st.at, func() {
			step = i
			switch st.op {
			case opMove:
				if st.from != geo.NoRegion {
					net.SinkFor(st.obj)(st.from, evader.EventLeft)
				}
				pos[st.obj] = st.u
				net.SinkFor(st.obj)(st.u, evader.EventMove)
			case opGPS:
				if st.u == layer.ClientRegion(id) {
					layer.FailClient(id)
					if err := layer.RestartClient(id, st.u); err != nil {
						t.Error(err)
					}
				} else if err := layer.MoveClient(id, st.u); err != nil {
					t.Error(err)
				}
			case opFind:
				_, _ = net.FindObject(layer.ClientRegion(id), st.obj)
			case opFound:
				c.Receive(&cgcast.Delivery{Kind: KindFound, Body: foundBody(st)})
			}
			out.records = append(out.records, recordsLine(&net.finds, 0))
		})
	}
	k.RunUntil(horizon)
	return out
}

// netClientHalf runs the script on a NetHost whose transport records every
// frame and delivers none. The client is the one at scriptHome's node, and
// every input is a RunAt of that node at the script's instant, counted from
// an origin a little after boot, so each input's instant is exact however
// late the executor runs it. A relocation and a restart in place are both
// the GPS input NetHost's OnStart runs.
func netClientHalf(t *testing.T, script []clientStep) clientRun {
	h := hier.MustGrid(geo.MustGridTiling(4, 4), 2)
	var out clientRun
	step := -1
	nh, err := NewNetHost(h, NetConfig{Geom: hier.MeasureGeometry(h), Delta: netTestDelta, Unit: netTestUnit,
		Heartbeat: scriptPeriod, OnFound: func(r FindResult) { out.founds = append(out.founds, foundLine(step, r)) }})
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
	defer svc.Stop()

	apply := func(n *nethost.Node, st clientStep) {
		c := &nh.region(n).client
		switch st.op {
		case opMove:
			nh.mu.Lock()
			nh.objAt[st.obj] = st.u
			nh.mu.Unlock()
			if st.from == c.region {
				c.leave(st.obj)
			}
			if st.u == c.region {
				c.enter(st.obj)
			}
		case opGPS:
			nh.gps(n, st.u)
		case opFind:
			if id, _, err := nh.openFind(st.obj, n.Now()); err == nil {
				if err := c.find(st.obj, FindPayload{ID: id, Origin: c.region}); err != nil {
					t.Error(err)
				}
			}
		case opFound:
			b := foundBody(st)
			payload, err := EncodeClusterMsg(h.Cluster(c.region, 0), c.region, 0, st.obj, KindFound, findsOf(&b))
			if err != nil {
				t.Error(err)
				return
			}
			nh.DeliverFrame(n, KindFound, payload)
		}
	}
	// The executor runs the node's inputs in due order, so once the input
	// due at the horizon has run, so has every input due before it.
	horizon := scriptHorizon(script)
	origins, done := make(chan sim.Time, 1), make(chan struct{})
	if err := svc.Inject(scriptHome, func(n *nethost.Node) {
		origin := n.Now() + 20*time.Millisecond
		for i, st := range script {
			n.RunAt(origin+st.at, func(n *nethost.Node) {
				step = i
				apply(n, st)
				nh.mu.Lock()
				out.records = append(out.records, recordsLine(&nh.finds, origin))
				nh.mu.Unlock()
			})
		}
		n.RunAt(origin+horizon, func(*nethost.Node) { close(done) })
		origins <- origin
	}); err != nil {
		t.Fatal(err)
	}
	origin := <-origins
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the script's inputs had not run 10 s after its horizon was due")
	}
	svc.Stop()

	frames, _ := tr.take()
	for _, f := range frames {
		due := sim.Time(binary.BigEndian.Uint64(f[4:]))
		kl := int(binary.BigEndian.Uint16(f[12:]))
		kind, msg := string(f[14:14+kl]), f[14+kl:]
		from := hier.ClusterID(int32(binary.BigEndian.Uint32(msg[2:])))
		fromRegion := geo.RegionID(int32(binary.BigEndian.Uint32(msg[6:])))
		obj := ObjectID(int32(binary.BigEndian.Uint32(msg[12:])))
		if at := due - netTestDelta - origin; from == hier.NoCluster && at < horizon {
			out.sends = append(out.sends, sendLine(kind, obj, fromRegion, at))
		}
	}
	return out
}

// One client algorithm, two hosts: the same seeded script of GPS moves and
// departures, client relocations and restarts, finds, founds (duplicates
// and strays among them) and the refresh ticks they start, driven through
// the oracle host's Client and NetHost's node client, must give the same
// client sends, stamped at the same instants, the same found outputs and
// the same find records.
func TestClientHalvesMatchOnBothHosts(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			script := clientScript(seed, 60)
			oracle, networked := simClientHalf(t, script), netClientHalf(t, script)
			for _, part := range []struct {
				name     string
				sim, net []string
			}{
				{"client sends", oracle.sends, networked.sends},
				{"found outputs", oracle.founds, networked.founds},
				{"find records", oracle.records, networked.records},
			} {
				if !slices.Equal(part.sim, part.net) {
					t.Errorf("%s differ:\noracle    %q\nnetworked %q", part.name, part.sim, part.net)
				}
			}
			refreshes := 0
			for _, s := range oracle.sends {
				if strings.HasPrefix(s, KindRefresh+" ") {
					refreshes++
				}
			}
			t.Logf("%d client sends (%d refreshes), %d found outputs", len(oracle.sends), refreshes, len(oracle.founds))
			if refreshes == 0 || len(oracle.founds) == 0 {
				t.Errorf("the script exercised too little: %d refreshes, %d found outputs", refreshes, len(oracle.founds))
			}
		})
	}
}
