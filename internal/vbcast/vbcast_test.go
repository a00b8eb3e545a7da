package vbcast

import (
	"testing"
	"time"

	"vinestalk/internal/geo"
	"vinestalk/internal/metrics"
	"vinestalk/internal/sim"
	"vinestalk/internal/vsa"
)

const (
	delta = 10 * time.Millisecond
	lagE  = 5 * time.Millisecond
)

type recClient struct{ msgs []any }

func (c *recClient) GPSUpdate(geo.RegionID) {}
func (c *recClient) Receive(msg any)        { c.msgs = append(c.msgs, msg) }

type recVSA struct {
	levels []int
	msgs   []any
}

func (v *recVSA) Receive(level int, msg any) {
	v.levels = append(v.levels, level)
	v.msgs = append(v.msgs, msg)
}
func (v *recVSA) Reset() { v.levels, v.msgs = nil, nil }

// fixture: 3x3 grid, one client per region, all VSAs alive.
func setup(t *testing.T) (*sim.Kernel, *vsa.Layer, *Service, []*recVSA, []*recClient) {
	t.Helper()
	return setupLedger(t, metrics.NewLedger())
}

// setupLedger is setup recording into a ledger the test keeps.
func setupLedger(t *testing.T, ledger *metrics.Ledger) (*sim.Kernel, *vsa.Layer, *Service, []*recVSA, []*recClient) {
	t.Helper()
	k := sim.New(7)
	tiling := geo.MustGridTiling(3, 3)
	layer := vsa.NewLayer(k, tiling)
	vsas := make([]*recVSA, tiling.NumRegions())
	clients := make([]*recClient, tiling.NumRegions())
	for u := 0; u < tiling.NumRegions(); u++ {
		vsas[u] = &recVSA{}
		layer.RegisterVSA(geo.RegionID(u), vsas[u])
		clients[u] = &recClient{}
		if err := layer.AddClient(vsa.ClientID(u), geo.RegionID(u), clients[u]); err != nil {
			t.Fatal(err)
		}
	}
	layer.StartAllAlive()
	svc := New(k, layer, delta, lagE, ledger)
	return k, layer, svc, vsas, clients
}

// clientToVSA drives the two halves of a client broadcast the way a caller
// does: SendClient, one kernel event at the arrival time, ArriveClient.
func clientToVSA(svc *Service, from vsa.ClientID, target geo.RegionID, level int, msg any) error {
	at, inc, err := svc.SendClient(from, target)
	if err != nil {
		return err
	}
	svc.k.At(at, func() { svc.ArriveClient(target, inc, level, msg) })
	return nil
}

func TestClientToVSADelay(t *testing.T) {
	k, _, svc, vsas, _ := setup(t)
	if err := clientToVSA(svc, 4, 4, 2, "hello"); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(delta - time.Millisecond)
	if len(vsas[4].msgs) != 0 {
		t.Fatal("message delivered before δ")
	}
	k.RunUntil(delta)
	if len(vsas[4].msgs) != 1 || vsas[4].msgs[0] != "hello" || vsas[4].levels[0] != 2 {
		t.Fatalf("delivery = %v at levels %v", vsas[4].msgs, vsas[4].levels)
	}
}

func TestClientToVSANeighborAllowedFarRejected(t *testing.T) {
	k, _, svc, vsas, _ := setup(t)
	// Client in r0 to neighboring region r1's VSA: allowed.
	if err := clientToVSA(svc, 0, 1, 0, "nbr"); err != nil {
		t.Fatal(err)
	}
	// r0 to r8 (not neighbors): rejected.
	if err := clientToVSA(svc, 0, 8, 0, "far"); err == nil {
		t.Fatal("out-of-range broadcast accepted")
	}
	k.Run()
	if len(vsas[1].msgs) != 1 {
		t.Fatalf("neighbor delivery = %v", vsas[1].msgs)
	}
}

func TestClientToVSADeadSender(t *testing.T) {
	_, layer, svc, _, _ := setup(t)
	layer.FailClient(0)
	if err := clientToVSA(svc, 0, 0, 0, "x"); err == nil {
		t.Fatal("send from dead client accepted")
	}
}

// The two halves of a client broadcast: SendClient hands back the arrival
// time δ away and the target's incarnation, and ArriveClient, run at that
// time, reports a message whose VSA failed in flight as not delivered and
// attributes the drop to the incarnation change.
func TestClientToVSADroppedWhenVSAFails(t *testing.T) {
	led := metrics.NewLedger()
	k, layer, svc, vsas, _ := setupLedger(t, led)
	at, inc, err := svc.SendClient(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if at != delta {
		t.Fatalf("arrival time %v, want δ = %v", at, delta)
	}
	delivered := true
	k.At(at, func() { delivered = svc.ArriveClient(1, inc, 0, "x") })
	// r1's VSA fails mid-flight (its only client leaves).
	k.RunFor(delta / 2)
	if err := layer.MoveClient(1, 2); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if delivered || len(vsas[1].msgs) != 0 {
		t.Fatal("message delivered to failed VSA")
	}
	if got := led.Drops("transport/client", metrics.DropIncarnation); got != 1 {
		t.Errorf("incarnation drops = %d, want 1", got)
	}
}

func TestVSAToClientsBroadcast(t *testing.T) {
	k, _, svc, _, clients := setup(t)
	targets := []geo.RegionID{4, 1, 3}
	if err := svc.VSAToClients(4, targets, "found"); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(delta + lagE - time.Millisecond)
	if len(clients[4].msgs) != 0 {
		t.Fatal("delivered before δ+e")
	}
	k.Run()
	for _, u := range targets {
		if len(clients[u].msgs) != 1 {
			t.Errorf("client in r%d got %v, want one message", u, clients[u].msgs)
		}
	}
	if len(clients[8].msgs) != 0 {
		t.Error("untargeted client received broadcast")
	}
}

func TestVSAToClientsValidation(t *testing.T) {
	_, layer, svc, _, _ := setup(t)
	if err := svc.VSAToClients(0, []geo.RegionID{8}, "x"); err == nil {
		t.Error("broadcast to non-neighbor accepted")
	}
	// Kill r0's VSA (its client leaves).
	if err := layer.MoveClient(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := svc.VSAToClients(0, []geo.RegionID{0}, "x"); err == nil {
		t.Error("broadcast from dead VSA accepted")
	}
}

func TestVSAToVSARelay(t *testing.T) {
	k, _, svc, _, _ := setup(t)
	var arrivedAt sim.Time = -1
	if err := svc.VSAToVSA(0, 1, func() { arrivedAt = k.Now() }); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if arrivedAt != delta+lagE {
		t.Fatalf("arrived at %v, want %v", arrivedAt, delta+lagE)
	}
	if err := svc.VSAToVSA(0, 8, func() {}); err == nil {
		t.Error("non-neighbor relay accepted")
	}
}

func TestVSAToVSADroppedOnDestFailure(t *testing.T) {
	k, layer, svc, _, _ := setup(t)
	arrived := false
	if err := svc.VSAToVSA(0, 1, func() { arrived = true }); err != nil {
		t.Fatal(err)
	}
	k.RunFor(delta / 2)
	if err := layer.MoveClient(1, 2); err != nil { // r1 VSA dies
		t.Fatal(err)
	}
	k.Run()
	if arrived {
		t.Fatal("relay arrived at failed VSA")
	}
}

func TestVSAToVSASelfDelivery(t *testing.T) {
	k, _, svc, _, _ := setup(t)
	arrived := false
	if err := svc.VSAToVSA(3, 3, func() { arrived = true }); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if !arrived {
		t.Fatal("self relay never arrived")
	}
}

func TestAccessors(t *testing.T) {
	_, _, svc, _, _ := setup(t)
	if svc.Delta() != delta || svc.E() != lagE {
		t.Errorf("Delta/E = %v/%v", svc.Delta(), svc.E())
	}
}

// A VSA→clients broadcast is one message; its hop-work is the sum of
// per-target hop counts (self 0, each neighbor 1), not the target count.
func TestVSAToClientsWorkAccounting(t *testing.T) {
	ledger := metrics.NewLedger()
	_, _, svc, _, _ := setupLedger(t, ledger)
	if err := svc.VSAToClients(4, []geo.RegionID{4, 1, 3}, "found"); err != nil {
		t.Fatal(err)
	}
	if got := ledger.Messages("transport/vsa-client"); got != 1 {
		t.Errorf("messages = %d, want 1 (a broadcast is one message)", got)
	}
	if got := ledger.Work("transport/vsa-client"); got != 2 {
		t.Errorf("hop-work = %d, want 2 (self=0 + two neighbors)", got)
	}
}

// Once a VSA→VSA message is in flight it is independent of the sender: the
// sending VSA failing mid-flight must not retract the delivery (only the
// destination's fate matters).
func TestVSAToVSASenderDiesMidFlight(t *testing.T) {
	k, layer, svc, _, _ := setup(t)
	arrived := false
	if err := svc.VSAToVSA(0, 1, func() { arrived = true }); err != nil {
		t.Fatal(err)
	}
	k.RunFor(delta / 2)
	if err := layer.MoveClient(0, 1); err != nil { // r0's VSA dies
		t.Fatal(err)
	}
	if layer.Alive(0) {
		t.Fatal("sender VSA still alive; test setup broken")
	}
	k.Run()
	if !arrived {
		t.Fatal("in-flight relay retracted by sender failure")
	}
}

// scriptModel replays a fixed delay sequence; lag is the constant
// emulation lag it reports.
type scriptModel struct {
	delays []sim.Time
	i      int
	lag    sim.Time
}

func (m *scriptModel) BroadcastDelay(_, _ geo.RegionID, _ sim.Time) sim.Time {
	d := m.delays[m.i%len(m.delays)]
	m.i++
	return d
}

func (m *scriptModel) EmulationLag(geo.RegionID, sim.Time) sim.Time { return m.lag }

// With a delay model installed, client→VSA messages arrive at the sampled
// delay rather than exactly δ, and samples beyond the envelope are clamped
// into [0,δ].
func TestDelayModelSampledAndClamped(t *testing.T) {
	k, _, svc, vsas, _ := setup(t)
	svc.SetDelayModel(&scriptModel{delays: []sim.Time{3 * time.Millisecond, 99 * delta}})
	if err := clientToVSA(svc, 4, 4, 0, "early"); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(3 * time.Millisecond)
	if len(vsas[4].msgs) != 1 {
		t.Fatalf("sampled delivery = %v, want arrival at 3ms", vsas[4].msgs)
	}
	if err := clientToVSA(svc, 4, 4, 0, "late"); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if got := k.Now(); got != 3*time.Millisecond+delta {
		t.Errorf("out-of-envelope sample delivered at %v, want clamp to δ (%v)", got, 3*time.Millisecond+delta)
	}
	if len(vsas[4].msgs) != 2 {
		t.Fatalf("deliveries = %v", vsas[4].msgs)
	}
}

// The TOBcast ordering constraint: two messages sent back-to-back to the
// same region must be delivered in send order even when the second samples
// a shorter delay — its arrival is clamped to the first's.
func TestDelayModelPreservesSendOrder(t *testing.T) {
	k, _, svc, vsas, _ := setup(t)
	svc.SetDelayModel(&scriptModel{delays: []sim.Time{9 * time.Millisecond, 1 * time.Millisecond}})
	if err := clientToVSA(svc, 4, 4, 0, "first"); err != nil {
		t.Fatal(err)
	}
	if err := clientToVSA(svc, 4, 4, 0, "second"); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(9*time.Millisecond - time.Microsecond)
	if len(vsas[4].msgs) != 0 {
		t.Fatalf("premature delivery %v: second message overtook the first", vsas[4].msgs)
	}
	k.Run()
	if len(vsas[4].msgs) != 2 || vsas[4].msgs[0] != "first" || vsas[4].msgs[1] != "second" {
		t.Fatalf("delivery order = %v, want [first second]", vsas[4].msgs)
	}
}

// Regression for the stale-clamp bug: a TOBcast clamp entry recorded under
// a dead incarnation must not delay the restarted VSA's fresh channel.
// TOBcast order is a per-process guarantee and a restart is a new process,
// so only the sampled delay — which must itself lie in the [0,δ] envelope —
// governs the new message's arrival.
func TestDelayModelClampResetOnIncarnationChange(t *testing.T) {
	led := metrics.NewLedger()
	k, layer, svc, vsas, _ := setupLedger(t, led)
	svc.SetDelayModel(&scriptModel{delays: []sim.Time{delta, 1 * time.Millisecond}})

	// Message to r1's original incarnation, arriving at the full δ.
	if err := clientToVSA(svc, 0, 1, 0, "old"); err != nil {
		t.Fatal(err)
	}
	k.RunFor(2 * time.Millisecond)

	// r1's VSA fails (its only client leaves) and restarts (the client
	// returns; t_restart is 0 in this fixture).
	if err := layer.MoveClient(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := layer.MoveClient(1, 1); err != nil {
		t.Fatal(err)
	}
	k.RunFor(1 * time.Millisecond)
	if !layer.Alive(1) {
		t.Fatal("r1 VSA did not restart; fixture broken")
	}

	// Fresh message to the restarted VSA sampling a 1ms delay. The stale
	// clamp (arrival δ = 10ms) must not apply: delivery happens at the
	// sampled time, and the observed delay stays within its own envelope.
	sendAt := k.Now()
	if err := clientToVSA(svc, 0, 1, 0, "fresh"); err != nil {
		t.Fatal(err)
	}
	// The fresh message must arrive at its own sampled 1ms delay — well
	// inside the [0,δ] envelope — not at the stale clamp's 10ms arrival.
	k.RunUntil(sendAt + 1*time.Millisecond - time.Microsecond)
	if len(vsas[1].msgs) != 0 {
		t.Fatalf("delivery before the sampled delay: %v", vsas[1].msgs)
	}
	k.RunUntil(sendAt + 1*time.Millisecond)
	if len(vsas[1].msgs) != 1 || vsas[1].msgs[0] != "fresh" {
		t.Fatalf("restarted VSA received %v at sampled delay, want [fresh] "+
			"(stale clamp over-delayed the fresh channel)", vsas[1].msgs)
	}
	// Drain the old message's would-be arrival: it must be dropped and its
	// death attributed to the incarnation change.
	k.Run()
	if len(vsas[1].msgs) != 1 {
		t.Fatalf("old incarnation's message delivered: %v", vsas[1].msgs)
	}
	if got := led.Drops("transport/client", metrics.DropIncarnation); got != 1 {
		t.Errorf("incarnation drops = %d, want 1", got)
	}
}

// Within one incarnation the clamp still binds (send order preserved) and
// the clamped delay still lies in its envelope — the incarnation reset must
// not weaken TOBcast for live channels.
func TestDelayModelClampStillBindsWithinIncarnation(t *testing.T) {
	k, _, svc, vsas, _ := setup(t)
	svc.SetDelayModel(&scriptModel{delays: []sim.Time{8 * time.Millisecond, 1 * time.Millisecond}})
	if err := clientToVSA(svc, 0, 1, 0, "first"); err != nil {
		t.Fatal(err)
	}
	k.RunFor(2 * time.Millisecond)
	sendAt := k.Now()
	if err := clientToVSA(svc, 0, 1, 0, "second"); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if len(vsas[1].msgs) != 2 || vsas[1].msgs[1] != "second" {
		t.Fatalf("deliveries = %v, want [first second]", vsas[1].msgs)
	}
	// Second message clamped from sendAt+1ms up to the first's arrival
	// (8ms); its own envelope [sendAt, sendAt+δ] = [2ms, 12ms] contains it.
	gotDelay := k.Now() - sendAt
	if gotDelay != 6*time.Millisecond {
		t.Errorf("clamped delay = %v, want 6ms (arrival held to the first message's)", gotDelay)
	}
	if gotDelay > delta {
		t.Errorf("clamped delay %v exceeds the δ envelope", gotDelay)
	}
}

// Transport conservation: every client→VSA and VSA→VSA send ends as exactly
// one delivery or one attributed drop once the queue drains.
func TestDropAccountingConserves(t *testing.T) {
	led := metrics.NewLedger()
	k, layer, svc, _, _ := setupLedger(t, led)

	if err := clientToVSA(svc, 0, 1, 0, "a"); err != nil { // delivered
		t.Fatal(err)
	}
	if err := clientToVSA(svc, 0, 0, 0, "b"); err != nil { // delivered
		t.Fatal(err)
	}
	if err := svc.VSAToVSA(3, 4, func() {}); err != nil { // delivered
		t.Fatal(err)
	}
	if err := svc.VSAToVSA(3, 6, func() {}); err != nil { // dest dies in flight
		t.Fatal(err)
	}
	k.RunFor(delta / 2)
	if err := layer.MoveClient(6, 7); err != nil {
		t.Fatal(err)
	}
	k.Run()

	for _, kind := range []string{"transport/client", "transport/hop"} {
		sent := led.Messages(kind)
		delivered := led.Delivered(kind)
		var dropped int64
		for c, n := range led.Snapshot().DropsByCause(kind) {
			if n < 0 {
				t.Errorf("%s: negative drop count for %s", kind, c)
			}
			dropped += n
		}
		if sent != delivered+dropped {
			t.Errorf("%s: sent %d != delivered %d + dropped %d", kind, sent, delivered, dropped)
		}
	}
	// The mid-flight death bumps the destination's incarnation, so that is
	// the attributed cause.
	if got := led.Drops("transport/hop", metrics.DropIncarnation); got != 1 {
		t.Errorf("incarnation hop drops = %d, want 1", got)
	}
}

// The two halves of a tracked hop: SendHop hands back the arrival time and
// the destination's incarnation, and ArriveHop, run at that time, reports the
// cause of an in-flight death to the caller.
func TestVSAToVSATrackedOnDrop(t *testing.T) {
	k, layer, svc, _, _ := setup(t)
	var cause metrics.DropCause
	arrived := false
	at, inc, err := svc.SendHop(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if at != delta+lagE {
		t.Fatalf("arrival time %v, want %v", at, delta+lagE)
	}
	k.At(at, func() { cause, arrived = svc.ArriveHop(1, inc) })
	k.RunFor(delta / 2)
	if err := layer.MoveClient(1, 2); err != nil { // r1 VSA dies
		t.Fatal(err)
	}
	k.Run()
	if arrived {
		t.Fatal("message arrived at failed VSA")
	}
	if cause != metrics.DropIncarnation {
		t.Errorf("drop cause = %q, want incarnation", cause)
	}
}

// With no model installed the worst-case schedule is untouched: VSA→VSA
// still arrives at exactly δ+e (regression guard for the model plumbing).
func TestNilModelIsExactWorstCase(t *testing.T) {
	k, _, svc, _, _ := setup(t)
	svc.SetDelayModel(nil)
	var arrivedAt sim.Time = -1
	if err := svc.VSAToVSA(0, 1, func() { arrivedAt = k.Now() }); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if arrivedAt != delta+lagE {
		t.Fatalf("arrived at %v, want %v", arrivedAt, delta+lagE)
	}
}
