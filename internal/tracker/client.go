package tracker

import (
	"fmt"

	"vinestalk/internal/cgcast"
	"vinestalk/internal/geo"
	"vinestalk/internal/hier"
	"vinestalk/internal/sim"
	"vinestalk/internal/vsa"
)

// Client is the VINESTALK client algorithm of §IV-A and §V: on a move input
// it sends grow to its region's level-0 cluster, on a left input it sends
// shrink, on a find input it forwards the query to its level-0 cluster, and
// on receiving a found broadcast it performs the found output if its last
// detection input indicated the object is present. Detection state and
// heartbeat timers are kept per tracked object (§VII multiple objects).
type Client struct {
	net        *Network
	id         vsa.ClientID
	region     geo.RegionID
	evaderHere map[ObjectID]bool
	refresh    map[ObjectID]*sim.Timer
}

var _ vsa.ClientHandler = (*Client)(nil)

// ID returns the client's identifier.
func (c *Client) ID() vsa.ClientID { return c.id }

// Region returns the client's current region.
func (c *Client) Region() geo.RegionID { return c.region }

// EvaderHere reports whether the client's last detection input for the
// default object was a move (the evader is in its region).
func (c *Client) EvaderHere() bool { return c.evaderHere[DefaultObject] }

// ObjectHere reports detection state for one tracked object.
func (c *Client) ObjectHere(obj ObjectID) bool { return c.evaderHere[obj] }

// GPSUpdate implements vsa.ClientHandler: the client learns its region on
// entry, relocation, and restart. Every GPS input resets detection state —
// relocation because the old region's detection is void, restart because a
// restarted client starts from its initial state (§II-C.1). The layer may
// restart a client in place, so the region alone cannot distinguish a
// restart from a no-op update; resetting unconditionally is the faithful
// semantics (and the re-detection below rebuilds true detections at once).
func (c *Client) GPSUpdate(u geo.RegionID) {
	c.region = u
	c.evaderHere = make(map[ObjectID]bool)
	// With AttachObject wired, a client arriving where an object already
	// sits detects it immediately (see Network.AttachEvader).
	for obj, at := range c.net.evaderAt {
		if at != nil && at() == u && !c.evaderHere[obj] {
			c.evaderMove(obj, u)
		}
	}
}

// Receive implements vsa.ClientHandler: the only broadcast clients consume
// is found.
func (c *Client) Receive(msg any) {
	d, ok := msg.(*cgcast.Delivery)
	if !ok || d.Kind != KindFound {
		return
	}
	obj := ObjectID(d.Obj)
	if !c.evaderHere[obj] {
		return
	}
	for _, p := range findsOf(&d.Body) {
		c.net.reportFound(obj, p, c.region)
	}
}

// evaderMove is the GPS move input: the object entered this client's
// region, so broadcast a detection (grow) to the local level-0 cluster.
func (c *Client) evaderMove(obj ObjectID, u geo.RegionID) {
	c.evaderHere[obj] = true
	_ = c.sendLocal(kindGrow, bodyFor(obj))
	if hb := c.net.hb; hb != nil {
		c.refreshTimer(obj).SetAfter(hb.Period)
	}
}

// evaderLeft is the GPS left input: the object left, so broadcast shrink.
func (c *Client) evaderLeft(obj ObjectID, u geo.RegionID) {
	delete(c.evaderHere, obj)
	if t, ok := c.refresh[obj]; ok {
		t.Clear()
		delete(c.refresh, obj)
	}
	_ = c.sendLocal(kindShrink, bodyFor(obj))
}

// find is the find input from the outside (§V): forward to the local
// level-0 cluster as a find broadcast.
func (c *Client) find(obj ObjectID, p FindPayload) error {
	return c.sendLocal(kindFind, findsBody(obj, []FindPayload{p}))
}

// sendLocal broadcasts to the client's own region's level-0 cluster.
func (c *Client) sendLocal(kind kindCode, body cgcast.Body) error {
	c0 := c.net.h.Cluster(c.region, 0)
	if c0 == hier.NoCluster {
		return fmt.Errorf("tracker: client %v has no region", c.id)
	}
	return c.net.sendFromClient(c.id, c0, kind, body)
}

// refreshTimer lazily creates the heartbeat timer for one object (§VII
// extension): while the object stays in the client's region, the client
// re-broadcasts its detection as refresh messages every heartbeat period.
func (c *Client) refreshTimer(obj ObjectID) *sim.Timer {
	if c.refresh == nil {
		c.refresh = make(map[ObjectID]*sim.Timer)
	}
	t, ok := c.refresh[obj]
	if !ok {
		t = sim.NewTimer(c.net.k, func() {
			if !c.evaderHere[obj] || c.net.hb == nil {
				return
			}
			_ = c.sendLocal(kindRefresh, bodyFor(obj))
			c.refresh[obj].SetAfter(c.net.hb.Period)
		})
		c.refresh[obj] = t
	}
	return t
}
