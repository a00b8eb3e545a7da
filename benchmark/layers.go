package main

import (
	"fmt"
	"runtime"
	"time"

	"vinestalk/internal/cgcast"
	"vinestalk/internal/geo"
	"vinestalk/internal/geocast"
	"vinestalk/internal/hier"
	"vinestalk/internal/metrics"
	"vinestalk/internal/sim"
	"vinestalk/internal/trace"
	"vinestalk/internal/vbcast"
	"vinestalk/internal/vsa"
)

// The per-layer run prices each transport layer by replaying the exact send
// schedule of the traced workload through ever taller stacks built from the
// packages' public constructors:
//
//	a   sim.New alone: the kernel events the transport would schedule, with
//	    no-op bodies
//	b1  + vsa.NewLayer and vbcast.New: every hop a VSAToVSA broadcast
//	b   + geocast.New: every frame one geocast.Send
//	c   + cgcast.New: every message one ClusterToCluster into no-op
//	    RegisterVSA handlers, unbatched and WithBatching
//	d   the full core.Service run the schedule was recorded from
//
// A layer's self time is its stack minus the one below, divided by that
// layer's count.

// sendRec is one protocol send of the traced run.
type sendRec struct {
	at     sim.Time
	from   hier.ClusterID // hier.NoCluster for a client's send
	to     hier.ClusterID
	region geo.RegionID // the sending client's region, for client sends
	kind   uint8        // index into sendLog.kinds
	obj    int32
}

// sendLog is the tracer sink: it keeps every "send" event.
type sendLog struct {
	recs    []sendRec
	kinds   []string
	kindIdx map[string]uint8
}

func newSendLog() *sendLog { return &sendLog{kindIdx: map[string]uint8{}} }

func (l *sendLog) sink(e trace.Event) {
	if e.Kind != "send" {
		return
	}
	ki, ok := l.kindIdx[e.Msg]
	if !ok {
		ki = uint8(len(l.kinds))
		l.kinds = append(l.kinds, e.Msg)
		l.kindIdx[e.Msg] = ki
	}
	l.recs = append(l.recs, sendRec{at: e.At, from: hier.ClusterID(e.From), to: hier.ClusterID(e.To),
		region: geo.RegionID(e.Region), kind: ki, obj: e.Obj})
}

// frame is one wire frame of the replayed schedule: a single cluster
// message when unbatched, every same-instant message of one (source head,
// destination head, delivery time) edge when batched — the coalescing rule
// of cgcast.WithBatching. A client's send is always its own frame.
type frame struct {
	at       sim.Time
	src, dst geo.RegionID
	due      sim.Time
	client   bool
	flush    bool // batched frames cost one extra same-instant flush event
}

// replayEnv is what every stack is rebuilt from.
type replayEnv struct {
	side     int
	base     int
	delta, e sim.Time
}

// stackParts is one freshly built transport stack.
type stackParts struct {
	k      *sim.Kernel
	h      *hier.Hierarchy
	geom   hier.Geometry
	layer  *vsa.Layer
	vb     *vbcast.Service
	gc     *geocast.Service
	ledger *metrics.Ledger
}

type noopVSA struct{}

func (noopVSA) Receive(int, any) {}
func (noopVSA) Reset()           {}

type noopClient struct{}

func (noopClient) GPSUpdate(geo.RegionID) {}
func (noopClient) Receive(any)            {}

func (env replayEnv) build(seed int64) (*stackParts, error) {
	tiling, err := geo.NewGridTiling(env.side, env.side)
	if err != nil {
		return nil, err
	}
	h, err := hier.NewGrid(tiling, env.base)
	if err != nil {
		return nil, err
	}
	// The replayed phase is steady state: every BFS of the routing graph
	// has long been done (in set-up on walk64, in the warm-up round on the
	// fan-out workloads).
	h.Graph().Precompute()
	p := &stackParts{k: sim.New(seed), h: h, geom: hier.GridFormulas(env.base, h.MaxLevel()), ledger: metrics.NewLedger()}
	p.layer = vsa.NewLayer(p.k, tiling, vsa.WithAlwaysAlive())
	for u := 0; u < tiling.NumRegions(); u++ {
		p.layer.RegisterVSA(geo.RegionID(u), noopVSA{})
		// One stationary client per region, with the id the tracker
		// network gives it, so client sends replay from the same place.
		if err := p.layer.AddClient(vsa.ClientID(u), geo.RegionID(u), noopClient{}); err != nil {
			return nil, err
		}
	}
	p.layer.StartAllAlive()
	p.vb = vbcast.New(p.k, p.layer, env.delta, env.e, p.ledger)
	p.gc = geocast.New(p.k, p.layer, h.Graph(), p.vb, p.ledger)
	return p, nil
}

// framesOf folds the recorded sends into wire frames.
func framesOf(p *stackParts, recs []sendRec, batched bool, delta, unit sim.Time) []frame {
	type key struct {
		src, dst geo.RegionID
		due      sim.Time
	}
	var out []frame
	open := map[key]bool{}
	var instant sim.Time = -1
	for _, r := range recs {
		if r.from == hier.NoCluster {
			out = append(out, frame{at: r.at, src: r.region, dst: p.h.Head(r.to), due: r.at + delta, client: true})
			continue
		}
		f := frame{at: r.at, src: p.h.Head(r.from), dst: p.h.Head(r.to),
			due: r.at + cgcast.ScheduleDelayIn(p.h, p.geom, unit, r.from, r.to)}
		if !batched {
			out = append(out, f)
			continue
		}
		if r.at != instant {
			instant = r.at
			clear(open)
		}
		k := key{f.src, f.dst, f.due}
		if open[k] {
			continue
		}
		open[k] = true
		f.flush = true
		out = append(out, f)
	}
	return out
}

// stackCost is what one replay measured.
type stackCost struct {
	host   time.Duration
	events uint64
	mem    memCounters
}

// timeStack drains the kernel after the pump was armed, under the meter.
func timeStack(k *sim.Kernel, arm func()) stackCost {
	runtime.GC()
	var m meter
	s0 := k.Steps()
	m.start()
	arm()
	k.Run()
	m.stop()
	return stackCost{host: m.host, events: k.Steps() - s0, mem: m.mem}
}

// pump feeds n schedule entries to the kernel one instant at a time: one
// driver event per distinct timestamp runs do for every entry due then and
// arms itself for the next. The kernel's queue stays as shallow as in the
// real run instead of holding the whole schedule up front. The driver events
// are part of every stack, so they cancel out of every difference.
func pump(k *sim.Kernel, n int, at func(i int) sim.Time, do func(i int)) {
	if n == 0 {
		return
	}
	i := 0
	var step func()
	step = func() {
		now := at(i)
		for i < n && at(i) == now {
			do(i)
			i++
		}
		if i < n {
			k.At(at(i), step)
		}
	}
	k.At(at(0), step)
}

// chain is stack a's stand-in for one frame in flight: hops relay events a
// unit apart, then the hold event at the delivery time.
type chain struct {
	k    *sim.Kernel
	left int
	unit sim.Time
	due  sim.Time
	held bool
	step func()
	free *[]*chain
}

func (c *chain) run() {
	if c.left > 0 {
		c.left--
		c.k.Schedule(c.unit, c.step)
		return
	}
	if !c.held {
		c.held = true
		due := c.due
		if now := c.k.Now(); due < now {
			due = now
		}
		c.k.At(due, c.step)
		return
	}
	*c.free = append(*c.free, c)
}

func noop() {}

// startFrame schedules what every stack shares for one frame — a client's
// send is a single δ-delayed delivery, a batched frame costs one same-instant
// flush event — and reports whether the frame is thereby done.
func startFrame(k *sim.Kernel, f frame) (done bool) {
	if f.client {
		k.At(f.due, noop)
		return true
	}
	if f.flush {
		k.At(k.Now(), noop)
	}
	return false
}

// hold schedules the no-op delivery of a frame that has arrived, at its due
// time or now, whichever is later.
func hold(k *sim.Kernel, due sim.Time) {
	if now := k.Now(); due < now {
		due = now
	}
	k.At(due, noop)
}

// replayKernel is stack a.
func replayKernel(p *stackParts, frames []frame, unit sim.Time) stackCost {
	var free []*chain
	g := p.h.Graph()
	return timeStack(p.k, func() {
		pump(p.k, len(frames), func(i int) sim.Time { return frames[i].at }, func(i int) {
			f := frames[i]
			if startFrame(p.k, f) {
				return
			}
			var c *chain
			if n := len(free); n > 0 {
				c, free = free[n-1], free[:n-1]
			} else {
				c = &chain{k: p.k, unit: unit, free: &free}
				c.step = c.run
			}
			c.left, c.due, c.held = g.Distance(f.src, f.dst), f.due, false
			c.run()
		})
	})
}

// replayVbcast is stack b1: each hop of each frame is one V-bcast relay
// along the routing graph's shortest path, then the hold.
func replayVbcast(p *stackParts, frames []frame) (stackCost, error) {
	g := p.h.Graph()
	var firstErr error
	var relay func(cur, dst geo.RegionID, due sim.Time)
	relay = func(cur, dst geo.RegionID, due sim.Time) {
		if cur == dst {
			hold(p.k, due)
			return
		}
		next := g.NextHop(cur, dst)
		if err := p.vb.VSAToVSA(cur, next, func() { relay(next, dst, due) }); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	cost := timeStack(p.k, func() {
		pump(p.k, len(frames), func(i int) sim.Time { return frames[i].at }, func(i int) {
			f := frames[i]
			if startFrame(p.k, f) {
				return
			}
			relay(f.src, f.dst, f.due)
		})
	})
	return cost, firstErr
}

// replayGeocast is stack b: each frame is one geocast.Send whose arrival
// arms the hold.
func replayGeocast(p *stackParts, frames []frame) (stackCost, error) {
	var firstErr error
	cost := timeStack(p.k, func() {
		pump(p.k, len(frames), func(i int) sim.Time { return frames[i].at }, func(i int) {
			f := frames[i]
			if startFrame(p.k, f) {
				return
			}
			err := p.gc.Send(f.src, f.dst, func() { hold(p.k, f.due) })
			if err != nil && firstErr == nil {
				firstErr = err
			}
		})
	})
	return cost, firstErr
}

// replayPayload stands in for the tracker's envelope: one boxed value per
// message, as the real sender allocates.
type replayPayload struct {
	Obj  int32
	Body any
}

// replayCgcast is stack c: every recorded message goes through
// ClusterToCluster (or ClientToCluster) of a cgcast.Service whose
// destinations are no-op handlers.
func replayCgcast(p *stackParts, log *sendLog, batched bool) (stackCost, error) {
	var opts []cgcast.Option
	if batched {
		opts = append(opts, cgcast.WithBatching())
	}
	cg, err := cgcast.New(p.h, p.layer, p.gc, p.vb, p.geom, p.ledger, opts...)
	if err != nil {
		return stackCost{}, err
	}
	recs := log.recs
	var firstErr error
	cost := timeStack(p.k, func() {
		pump(p.k, len(recs), func(i int) sim.Time { return recs[i].at }, func(i int) {
			r := recs[i]
			payload := replayPayload{Obj: r.obj}
			var err error
			if r.from == hier.NoCluster {
				err = cg.ClientToCluster(vsa.ClientID(r.region), r.to, log.kinds[r.kind], payload)
			} else {
				err = cg.ClusterToCluster(r.from, r.to, log.kinds[r.kind], payload)
			}
			if err != nil && firstErr == nil {
				firstErr = err
			}
		})
	})
	return cost, firstErr
}

// layerCosts is the outcome of the whole replay.
type layerCosts struct {
	a, b1, b    stackCost // the workload's own batching mode
	cUn, cBa    stackCost
	bUn, bBa    stackCost // geocast stack under each mode's frames
	clusterMsgs int
	clientMsgs  int
	framesUn    int
	framesBa    int
	hops        int // relay hops of the native frames
}

// replayLayers runs every stack over the recorded schedule. native names
// the batching mode of the workload the schedule came from.
func replayLayers(env replayEnv, log *sendLog, nativeBatched bool, seed int64, spans *spanLog, parent int) (*layerCosts, error) {
	unit := env.delta + env.e
	lc := &layerCosts{}
	for _, r := range log.recs {
		if r.from == hier.NoCluster {
			lc.clientMsgs++
		} else {
			lc.clusterMsgs++
		}
	}
	build := func(name string) (*stackParts, int, error) {
		sp := spans.begin("replay."+name, parent, 0)
		p, err := env.build(seed)
		return p, sp, err
	}

	frameSets := map[bool][]frame{}
	{
		p, err := env.build(seed)
		if err != nil {
			return nil, err
		}
		for _, batched := range []bool{false, true} {
			frameSets[batched] = framesOf(p, log.recs, batched, env.delta, unit)
		}
		lc.framesUn = len(frameSets[false]) - lc.clientMsgs
		lc.framesBa = len(frameSets[true]) - lc.clientMsgs
		g := p.h.Graph()
		for _, f := range frameSets[nativeBatched] {
			if !f.client {
				lc.hops += g.Distance(f.src, f.dst)
			}
		}
	}
	native := frameSets[nativeBatched]

	p, sp, err := build("a.kernel")
	if err != nil {
		return nil, err
	}
	lc.a = replayKernel(p, native, unit)
	spans.end(sp)

	if p, sp, err = build("b1.vbcast"); err != nil {
		return nil, err
	}
	if lc.b1, err = replayVbcast(p, native); err != nil {
		return nil, fmt.Errorf("replay b1: %w", err)
	}
	spans.end(sp)

	for _, batched := range []bool{false, true} {
		name := "unbatched"
		if batched {
			name = "batched"
		}
		if p, sp, err = build("b.geocast." + name); err != nil {
			return nil, err
		}
		b, err := replayGeocast(p, frameSets[batched])
		if err != nil {
			return nil, fmt.Errorf("replay b: %w", err)
		}
		spans.end(sp)
		if p, sp, err = build("c.cgcast." + name); err != nil {
			return nil, err
		}
		c, err := replayCgcast(p, log, batched)
		if err != nil {
			return nil, fmt.Errorf("replay c: %w", err)
		}
		spans.end(sp)
		if batched {
			lc.bBa, lc.cBa = b, c
		} else {
			lc.bUn, lc.cUn = b, c
		}
	}
	lc.b = lc.bUn
	if nativeBatched {
		lc.b = lc.bBa
	}
	return lc, nil
}

// per divides, reading 0 for an empty denominator.
func per(num float64, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// fill writes the transport layers' per-layer metrics. d is the untraced
// full run over the same operations, dTraced the run the schedule was
// recorded from.
func (lc *layerCosts) fill(res *result, nativeBatched bool, d, dTraced stackCost) {
	msgs := float64(lc.clusterMsgs + lc.clientMsgs)
	c := lc.cUn
	if nativeBatched {
		c = lc.cBa
	}
	L := res.Layer
	L["sim.ns_per_event"] = per(float64(lc.a.host), float64(lc.a.events))
	L["sim.allocs_per_event"] = per(float64(lc.a.mem.mallocs), float64(lc.a.events))
	L["vbcast.ns_per_send"] = per(float64(lc.b1.host-lc.a.host), float64(lc.hops))
	L["geocast.ns_per_hop"] = per(float64(lc.b.host-lc.a.host), float64(lc.hops))
	L["geocast.allocs_per_hop"] = per(float64(lc.b.mem.mallocs)-float64(lc.a.mem.mallocs), float64(lc.hops))
	L["cgcast.ns_per_msg_unbatched"] = per(float64(lc.cUn.host-lc.bUn.host), msgs)
	L["cgcast.ns_per_msg_batched"] = per(float64(lc.cBa.host-lc.bBa.host), msgs)
	L["cgcast.allocs_per_msg"] = per(float64(c.mem.mallocs)-float64(lc.b.mem.mallocs), msgs)
	frames := lc.framesUn
	if nativeBatched {
		frames = lc.framesBa
	}
	L["cgcast.frames"] = float64(frames)
	L["cgcast.msgs_per_frame"] = per(float64(lc.clusterMsgs), float64(frames))
	L["tracker.ns_per_msg"] = per(float64(d.host-c.host), msgs)
	L["tracker.allocs_per_msg"] = per(float64(d.mem.mallocs)-float64(c.mem.mallocs), msgs)
	L["tracker.bytes_per_msg"] = per(float64(d.mem.bytes)-float64(c.mem.bytes), msgs)
	L["core.trace_overhead_pct"] = 100 * per(float64(dTraced.host-d.host), float64(d.host))
	// The self times telescope: kernel + (b-a) + (c-b) + (d-c) is the full
	// run by construction, so this reads 100 unless a stack ran longer than
	// the one above it and a self time was clamped at zero.
	self := func(hi, lo stackCost) float64 {
		if hi.host < lo.host {
			return 0
		}
		return float64(hi.host - lo.host)
	}
	sum := float64(lc.a.host) + self(lc.b, lc.a) + self(c, lc.b) + self(d, c)
	L["core.layer_sum_pct"] = 100 * per(sum, float64(d.host))
	res.note("layer self times over the replayed phase: kernel %.3fs, vbcast+geocast %.3fs, cgcast %.3fs, tracker+host %.3fs, full run %.3fs (traced %.3fs)",
		lc.a.host.Seconds(), (lc.b.host - lc.a.host).Seconds(), (c.host - lc.b.host).Seconds(), (d.host - c.host).Seconds(),
		d.host.Seconds(), dTraced.host.Seconds())
	res.note("replayed %d cluster + %d client messages as %d frames unbatched, %d batched; stack a ran %d events",
		lc.clusterMsgs, lc.clientMsgs, lc.framesUn, lc.framesBa, lc.a.events)
}
