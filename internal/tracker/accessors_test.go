package tracker

import (
	"testing"

	"vinestalk/internal/geo"
	"vinestalk/internal/hier"
	"vinestalk/internal/trace"
	"vinestalk/internal/vsa"
)

func TestNetworkAndClientAccessors(t *testing.T) {
	f := newFixture(t, fixtureConfig{side: 4, start: 0, alwaysUp: true,
		netOptions: []Option{WithTracer(trace.New(64))}})
	f.settle()

	if f.net.Hierarchy() != f.h {
		t.Error("Hierarchy accessor mismatch")
	}
	if f.net.Kernel() != f.k {
		t.Error("Kernel accessor mismatch")
	}
	if len(f.net.Schedule().G) != f.h.MaxLevel() {
		t.Errorf("Schedule has %d levels, want %d", len(f.net.Schedule().G), f.h.MaxLevel())
	}
	if f.net.Process(hier.NoCluster) != nil {
		t.Error("Process(NoCluster) should be nil")
	}
	if f.net.Process(hier.ClusterID(10_000)) != nil {
		t.Error("Process(out of range) should be nil")
	}
	if f.net.BackupProcess(hier.NoCluster) != nil {
		t.Error("BackupProcess(NoCluster) should be nil")
	}
	if f.net.BackupProcess(0) != nil {
		t.Error("BackupProcess without replication should be nil")
	}
	if n := f.net.ArmedWakeups(0); n != 0 {
		t.Errorf("%d wakeups armed at the evader's region after a heartbeat-free settle", n)
	}

	c := f.net.Client(vsa.ClientID(0))
	if c == nil {
		t.Fatal("Client(0) missing")
	}
	if c.ID() != 0 || c.Region() != geo.RegionID(0) {
		t.Errorf("client identity = (%v, %v)", c.ID(), c.Region())
	}
	if !c.EvaderHere() || !c.ObjectHere(DefaultObject) {
		t.Error("client at evader region should report detection")
	}
	if c.ObjectHere(5) {
		t.Error("client reports detection for untracked object")
	}
	if f.net.Client(vsa.ClientID(999)) != nil {
		t.Error("Client(unknown) should be nil")
	}

	id, err := f.net.Find(geo.RegionID(15))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.net.FindIssued(id); !ok {
		t.Error("FindIssued lost the find's start time")
	}
	if _, ok := f.net.FindIssued(FindID(12345)); ok {
		t.Error("FindIssued invented a start time")
	}
	f.settle()

	// HandleEvaderEvent routes a raw GPS input (the legacy single-object
	// entry point).
	f.net.HandleEvaderEvent(f.ev.Region(), true)
	f.settle()

	// The automaton ignores payloads that are not deliveries and levels a
	// region does not host.
	pr := f.net.Process(f.h.Cluster(0, 0))
	before, _, _, _ := pr.Pointers()
	f.net.Automaton().Deliver(pr.Region(), 0, "not a delivery")
	f.net.Automaton().Deliver(pr.Region(), 99, "nothing at this level")
	after, _, _, _ := pr.Pointers()
	if before != after {
		t.Error("garbage delivery mutated process state")
	}
	if pr.Cluster() != f.h.Cluster(0, 0) || pr.Level() != 0 {
		t.Error("process identity accessors wrong")
	}
}

func TestFindErrorsWithoutClients(t *testing.T) {
	f := newFixture(t, fixtureConfig{side: 4, start: 0, alwaysUp: true})
	f.settle()
	// Empty a region of clients; a find input needs an alive client there.
	if err := f.layer.MoveClient(vsa.ClientID(15), geo.RegionID(14)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.net.Find(geo.RegionID(15)); err == nil {
		t.Fatal("find accepted at a clientless region")
	}
}

// A found output for a find this network never issued is reported once and
// remembered without claiming an input; issuing the id afterwards is allowed
// once, and its own found output is then a duplicate.
func TestFoundWithoutRecordStillDedups(t *testing.T) {
	f := newFixture(t, fixtureConfig{side: 4, start: 0, alwaysUp: true})
	f.settle()
	const id = FindID(1 << 40)
	for i := 0; i < 2; i++ {
		f.net.reportFound(DefaultObject, FindPayload{ID: id, Origin: 3}, 0)
	}
	if _, issued := f.net.FindIssued(id); len(f.founds) != 1 || !f.net.FindDone(id) || issued {
		t.Fatalf("stray found: %d outputs, done %v, issued %v; want 1, true, false", len(f.founds), f.net.FindDone(id), issued)
	}
	if err := f.net.FindObjectAs(id, 5, DefaultObject); err != nil {
		t.Fatal(err)
	}
	f.settle()
	if _, issued := f.net.FindIssued(id); len(f.founds) != 1 || !issued {
		t.Fatalf("after issuing: %d outputs, issued %v; want 1, true", len(f.founds), issued)
	}
	if err := f.net.FindObjectAs(id, 5, DefaultObject); err == nil {
		t.Fatal("a find id was issued twice")
	}
}
