package tracker

import (
	"fmt"
	"slices"

	"vinestalk/internal/cgcast"
	"vinestalk/internal/geo"
	"vinestalk/internal/hier"
	"vinestalk/internal/sim"
	"vinestalk/internal/trace"
	"vinestalk/internal/vsa"
)

// clientPort is what a host gives the client algorithm, called in the input
// that causes each effect and at that input's instant: send a client
// message to region u's level-0 cluster (u is the client's region), or
// refuse it; schedule the refresh tick (obj, epoch) one heartbeat period
// later; perform the found output of find p for obj at region u.
type clientPort interface {
	send(u geo.RegionID, kind kindCode, body cgcast.Body) error
	tickAfter(obj ObjectID, epoch uint64)
	found(obj ObjectID, p FindPayload, u geo.RegionID)
}

// clientCore is the VINESTALK client algorithm of §IV-A, §V and §VII, the
// one copy every host runs: a move input sends grow to the region's level-0
// cluster, a left input sends shrink, a find input forwards the query
// there, a found broadcast is output if the object is detected here, and a
// detected object is refreshed every heartbeat period. Only a find's
// refused send reaches a caller; the others are lost like any message.
//
// here maps a detected object to its detection's epoch, from a counter that
// never goes back, not even on a GPS reset. A refresh tick for another epoch
// than its object's current one does nothing, so a departure, a reset or a
// newer detection ends a tick loop and an object has one per client.
type clientCore struct {
	port      clientPort
	heartbeat bool
	region    geo.RegionID
	here      map[ObjectID]uint64
	epoch     uint64
}

func (c *clientCore) detects(obj ObjectID) bool { return c.here[obj] != 0 }

// reset is the GPS input on entry, relocation and restart, which voids every
// detection (§II-C.1); then the objects present at u are detected, in
// ascending id order so that their grows leave in one order every run.
func (c *clientCore) reset(u geo.RegionID, present []ObjectID) {
	c.region = u
	clear(c.here)
	slices.Sort(present)
	for _, obj := range present {
		c.enter(obj)
	}
}

// enter is the move input: obj entered the client's region.
func (c *clientCore) enter(obj ObjectID) {
	c.adopt(obj)
	_ = c.port.send(c.region, kindGrow, bodyFor(obj))
	if c.heartbeat {
		c.port.tickAfter(obj, c.epoch)
	}
}

// adopt records a detection without its grow, which bulk attach has paid
// for with the group leader's.
func (c *clientCore) adopt(obj ObjectID) {
	c.epoch++
	c.here[obj] = c.epoch
}

// leave is the left input; the shrink goes out whether or not obj was
// detected.
func (c *clientCore) leave(obj ObjectID) {
	delete(c.here, obj)
	_ = c.port.send(c.region, kindShrink, bodyFor(obj))
}

// find is the find input; a refused send refuses the find.
func (c *clientCore) find(obj ObjectID, p FindPayload) error {
	return c.port.send(c.region, kindFind, findsBody(obj, []FindPayload{p}))
}

// deliverFound takes a found broadcast for obj with body b.
func (c *clientCore) deliverFound(obj ObjectID, b *cgcast.Body) {
	if !c.detects(obj) {
		return
	}
	for _, p := range findsOf(b) {
		c.port.found(obj, p, c.region)
	}
}

// tick is the refresh tick (obj, epoch).
func (c *clientCore) tick(obj ObjectID, epoch uint64) {
	if c.here[obj] != epoch {
		return
	}
	_ = c.port.send(c.region, kindRefresh, bodyFor(obj))
	c.port.tickAfter(obj, epoch)
}

// findRegistry is a host's record of finds: the largest id issued, and the
// issue instant of each outstanding find, from its input to its first found
// output. NetHost holds it under its lock.
type findRegistry struct {
	seq  FindID
	open map[FindID]sim.Time
}

// issue opens the record of find id, issued at at, refusing an id that is
// not positive or is outstanding. prev is what withdraw needs.
func (r *findRegistry) issue(id FindID, at sim.Time) (prev FindID, err error) {
	if id < 1 {
		return 0, fmt.Errorf("tracker: find id %d is not positive", id)
	}
	if _, outstanding := r.open[id]; outstanding {
		return 0, fmt.Errorf("tracker: find id %d already issued", id)
	}
	r.open[id] = at
	prev, r.seq = r.seq, max(r.seq, id)
	return prev, nil
}

// withdraw takes back a find whose input was refused: its record goes, and
// its id too unless a later issue has taken a higher one meanwhile.
func (r *findRegistry) withdraw(id, prev FindID) {
	delete(r.open, id)
	if r.seq == id {
		r.seq = prev
	}
}

// retire closes the record of find id on its first found output and returns
// its issue instant, or false for an id that is not outstanding (a
// duplicate, or a found for a find nobody issued), which is dropped.
func (r *findRegistry) retire(id FindID) (sim.Time, bool) {
	at, ok := r.open[id]
	delete(r.open, id)
	return at, ok
}

// done is FindDone on every host: the id was issued and is not outstanding.
func (r *findRegistry) done(id FindID) bool {
	_, outstanding := r.open[id]
	return id >= 1 && id <= r.seq && !outstanding
}

// Client is a sim host's client: the vsa.ClientHandler that hands the VSA
// layer's inputs to clientCore, and its port.
type Client struct {
	net  *Network
	id   vsa.ClientID
	core clientCore
}

var _ vsa.ClientHandler = (*Client)(nil)

// ID returns the client's identifier.
func (c *Client) ID() vsa.ClientID { return c.id }

// Region returns the client's current region.
func (c *Client) Region() geo.RegionID { return c.core.region }

// ObjectHere reports detection state for one tracked object.
func (c *Client) ObjectHere(obj ObjectID) bool { return c.core.detects(obj) }

// GPSUpdate implements vsa.ClientHandler: the GPS input, with the objects
// whose position hooks (Network.AttachObject) report u.
func (c *Client) GPSUpdate(u geo.RegionID) {
	var present []ObjectID
	for obj, at := range c.net.evaderAt {
		if at != nil && at() == u {
			present = append(present, obj)
		}
	}
	c.core.reset(u, present)
}

// Receive implements vsa.ClientHandler: clients consume found broadcasts.
func (c *Client) Receive(msg any) {
	if d, ok := msg.(*cgcast.Delivery); ok && d.Kind == KindFound {
		c.core.deliverFound(ObjectID(d.Obj), &d.Body)
	}
}

// send is C-gcast's ClientToCluster, with the message noted in transit.
func (c *Client) send(u geo.RegionID, kind kindCode, body cgcast.Body) error {
	n, to, obj := c.net, c.net.h.Cluster(u, 0), ObjectID(body.Obj)
	if to == hier.NoCluster {
		return fmt.Errorf("tracker: client %v has no region", c.id)
	}
	body.Mark = n.noteSent(obj, kind, hier.NoCluster, to, 1)
	if err := n.cg.ClientToClusterIndexed(c.id, to, n.cgKinds[kind], body); err != nil {
		n.resolve(body.Mark) // refused: nothing was sent
		return err
	}
	if n.tr.Enabled() {
		n.tr.Emit(trace.Event{
			At: n.k.Now(), Kind: "send", Op: n.opFor(obj, kind.String(), &body), Obj: int32(obj),
			Msg: kind.String(), From: -1, To: int32(to), Region: int32(u), Level: -1,
		})
	}
	return nil
}

// tickAfter makes the tick a kernel event; a stale one runs as a no-op.
func (c *Client) tickAfter(obj ObjectID, epoch uint64) {
	c.net.k.Schedule(c.net.hb.Period, func() { c.core.tick(obj, epoch) })
}

func (c *Client) found(obj ObjectID, p FindPayload, u geo.RegionID) { c.net.reportFound(obj, p, u) }
