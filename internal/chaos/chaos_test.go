package chaos

import (
	"testing"
	"time"

	"vinestalk/internal/geo"
	"vinestalk/internal/sim"
	"vinestalk/internal/vsa"
)

const unit = 15 * time.Millisecond

// Same (seed, name) must replay the same sequence; different names and
// different seeds must not.
func TestStreamsDeterministicAndIndependent(t *testing.T) {
	draw := func(seed int64, name string) [4]int64 {
		rng := NewStreams(seed).Stream(name)
		var out [4]int64
		for i := range out {
			out[i] = rng.Int63()
		}
		return out
	}
	if draw(7, "crash") != draw(7, "crash") {
		t.Error("same (seed, name) replayed differently")
	}
	if draw(7, "crash") == draw(7, "churn/0") {
		t.Error("different names share a sequence")
	}
	if draw(7, "crash") == draw(8, "crash") {
		t.Error("different seeds share a sequence")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{CrashWindows: 1},                 // no CrashLen
		{CrashWindows: 1, CrashLen: unit}, // horizon < window
		{ChurnClients: 1},                 // no period/horizon
		{DelayJitter: true, DropProb: 1.5, CrashWindows: 1, CrashLen: unit, Horizon: unit},
		{DropProb: 0.5}, // loss without crash windows
		{CrashWindows: -1},
	}
	for i, cfg := range bad {
		if _, err := NewPlan(cfg); err == nil {
			t.Errorf("config %d (%+v) accepted", i, cfg)
		}
	}
	good := []Config{
		{},
		{DelayJitter: true},
		{CrashWindows: 2, CrashLen: unit, Horizon: 10 * unit, DropProb: 0.3},
		{ChurnClients: 3, ChurnPeriod: unit, Horizon: 10 * unit},
	}
	for i, cfg := range good {
		if _, err := NewPlan(cfg); err != nil {
			t.Errorf("config %d rejected: %v", i, err)
		}
	}
}

// The delay model's samples stay within [0, max] and replay per seed.
func TestDelayModelBoundsAndDeterminism(t *testing.T) {
	sample := func() []sim.Time {
		p, err := NewPlan(Config{Seed: 3, DelayJitter: true})
		if err != nil {
			t.Fatal(err)
		}
		m := p.DelayModel()
		var out []sim.Time
		for i := 0; i < 200; i++ {
			d := m.BroadcastDelay(0, 1, 10*time.Millisecond)
			if d < 0 || d > 10*time.Millisecond {
				t.Fatalf("broadcast delay %v outside [0, 10ms]", d)
			}
			l := m.EmulationLag(0, 5*time.Millisecond)
			if l < 0 || l > 5*time.Millisecond {
				t.Fatalf("emulation lag %v outside [0, 5ms]", l)
			}
			out = append(out, d, l)
		}
		return out
	}
	a, b := sample(), sample()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs across same-seed runs: %v vs %v", i, a[i], b[i])
		}
	}
	p, _ := NewPlan(Config{})
	if p.DelayModel() != nil {
		t.Error("jitter-off plan returned a delay model")
	}
}

type nopClient struct{}

func (nopClient) GPSUpdate(geo.RegionID) {}
func (nopClient) Receive(any)            {}

type nopVSA struct{}

func (nopVSA) Receive(int, any) {}
func (nopVSA) Reset()           {}

// bareWorld is a VSA layer with one stationary client per region and no
// protocol on top — enough to exercise lifecycle faults.
func bareWorld(t *testing.T, side int, opts ...vsa.Option) (*sim.Kernel, *vsa.Layer) {
	t.Helper()
	k := sim.New(11)
	tiling := geo.MustGridTiling(side, side)
	layer := vsa.NewLayer(k, tiling, opts...)
	for u := 0; u < tiling.NumRegions(); u++ {
		layer.RegisterVSA(geo.RegionID(u), nopVSA{})
		if err := layer.AddClient(vsa.ClientID(u), geo.RegionID(u), nopClient{}); err != nil {
			t.Fatal(err)
		}
	}
	layer.StartAllAlive()
	return k, layer
}

// A crash window fails the region's clients (killing its VSA) for exactly
// its interval and restarts them in place at its end.
func TestCrashWindowFailsAndRestores(t *testing.T) {
	k, layer := bareWorld(t, 3, vsa.WithTRestart(unit))
	p, err := NewPlan(Config{Seed: 9, CrashWindows: 2, CrashLen: 10 * unit, Horizon: 100 * unit})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Install(k, layer, nil, 0); err != nil {
		t.Fatal(err)
	}
	ws := p.Windows()
	if len(ws) != 2 {
		t.Fatalf("compiled %d windows, want 2", len(ws))
	}
	for _, w := range ws {
		if w.Start < 0 || w.End != w.Start+10*unit || w.End > 100*unit {
			t.Fatalf("window %+v outside the horizon discipline", w)
		}
	}
	w := ws[0]
	k.RunUntil(w.Start)
	if len(layer.ClientsIn(w.Region)) != 0 {
		t.Fatalf("clients of %v still present during crash window", w.Region)
	}
	k.RunUntil(w.End + 2*unit) // restart + tRestart slack
	if !layer.ClientAlive(vsa.ClientID(w.Region)) {
		t.Fatalf("client of %v not restarted after window end", w.Region)
	}
	k.Run()
	for u := 0; u < 9; u++ {
		if !layer.ClientAlive(vsa.ClientID(u)) {
			t.Errorf("client %d dead after all windows closed", u)
		}
		if !layer.Alive(geo.RegionID(u)) {
			t.Errorf("VSA %d dead after all windows closed", u)
		}
	}
}

// Churn clients wander only until the horizon and replay identically per
// seed.
func TestChurnDeterministicAndBounded(t *testing.T) {
	run := func() []geo.RegionID {
		k, layer := bareWorld(t, 3)
		p, err := NewPlan(Config{Seed: 21, ChurnClients: 3, ChurnPeriod: 2 * unit, Horizon: 60 * unit})
		if err != nil {
			t.Fatal(err)
		}
		add := func(id vsa.ClientID, u geo.RegionID) error {
			return layer.AddClient(id, u, nopClient{})
		}
		if err := p.Install(k, layer, add, 100); err != nil {
			t.Fatal(err)
		}
		k.Run()
		// The final wakeup may land up to 1.5 periods past the horizon but
		// acts as a no-op there; nothing runs beyond that.
		if got := k.Now(); got > 60*unit+3*unit {
			t.Fatalf("churn events continued past the horizon (last at %v)", got)
		}
		out := make([]geo.RegionID, 3)
		for i := range out {
			out[i] = layer.ClientRegion(100 + vsa.ClientID(i))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("churn client %d ends at %v vs %v across same-seed runs", i, a[i], b[i])
		}
	}
}

func TestInstallGuards(t *testing.T) {
	p, _ := NewPlan(Config{DelayJitter: true})
	if err := p.Install(nil, nil, nil, 0); err != nil {
		t.Fatalf("jitter-only plan should install without kernel/layer: %v", err)
	}
	if err := p.Install(nil, nil, nil, 0); err == nil {
		t.Error("double install accepted")
	}
	p2, _ := NewPlan(Config{ChurnClients: 1, ChurnPeriod: unit, Horizon: unit})
	k, layer := bareWorld(t, 3)
	if err := p2.Install(k, layer, nil, 0); err == nil {
		t.Error("churn without addClient accepted")
	}
}

// The loss predicate drops only while a crash window is active.
func TestLossOnlyDuringWindows(t *testing.T) {
	k, layer := bareWorld(t, 3)
	p, err := NewPlan(Config{Seed: 4, CrashWindows: 1, CrashLen: 10 * unit, Horizon: 50 * unit, DropProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	loss := p.LossFunc(k)
	if loss == nil {
		t.Fatal("no loss predicate despite DropProb")
	}
	if err := p.Install(k, layer, nil, 0); err != nil {
		t.Fatal(err)
	}
	w := p.Windows()[0]
	if loss(0, 1) {
		t.Error("drop before any window opened")
	}
	k.RunUntil(w.Start)
	if !loss(0, 1) {
		t.Error("DropProb=1 did not drop inside the window")
	}
	k.RunUntil(w.End + unit)
	if loss(0, 1) {
		t.Error("drop after the window closed")
	}
	pOff, _ := NewPlan(Config{DelayJitter: true})
	if pOff.LossFunc(k) != nil {
		t.Error("loss predicate without DropProb")
	}
}

// occupiedDuring treats samples as closed intervals: at a move instant
// both the departed and the entered region count.
func TestOccupiedDuring(t *testing.T) {
	c := &Checker{}
	c.occ = []occSample{{at: 0, u: 1}, {at: 10, u: 2}, {at: 20, u: 3}}
	cases := []struct {
		from, to sim.Time
		u        geo.RegionID
		want     bool
	}{
		{0, 5, 1, true},
		{0, 5, 2, false},
		{10, 10, 1, true}, // boundary: r1 occupied up to and including t=10
		{10, 10, 2, true},
		{11, 15, 1, false},
		{15, 100, 3, true},
		{25, 30, 2, false},
		{25, 30, 3, true}, // last sample extends forever
	}
	for _, tc := range cases {
		if got := c.occupiedDuring(tc.from, tc.to, tc.u); got != tc.want {
			t.Errorf("occupiedDuring(%v, %v, r%v) = %v, want %v", tc.from, tc.to, tc.u, got, tc.want)
		}
	}
}
