package tracker

import (
	"testing"

	"vinestalk/internal/evader"
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
	if !c.ObjectHere(DefaultObject) {
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

	// Sink routes a raw GPS input for the default object.
	f.net.Sink()(f.ev.Region(), evader.EventMove)
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

// The parallel tracker issues caller-chosen ids through FindObjectAs, and
// a found output may reach a network before its find's input has run
// there. Such a found is for an id that is not outstanding, so it is
// dropped and leaves no record; the input then opens the find's record,
// its own found output is reported once and retires it, and nothing is
// left. An id that is outstanding cannot be issued again.
func TestFoundWithoutRecordStillDedups(t *testing.T) {
	f := newFixture(t, fixtureConfig{side: 4, start: 0, alwaysUp: true})
	f.settle()
	const id = FindID(1 << 40)
	for i := 0; i < 2; i++ {
		f.net.reportFound(DefaultObject, FindPayload{ID: id, Origin: 3}, 0)
	}
	if _, issued := f.net.FindIssued(id); len(f.founds) != 0 || f.net.FindDone(id) || issued || f.net.OutstandingFinds() != 0 {
		t.Fatalf("found before input: %d outputs, done %v, issued %v, %d records; want 0, false, false, 0",
			len(f.founds), f.net.FindDone(id), issued, f.net.OutstandingFinds())
	}
	if err := f.net.FindObjectAs(id, 5, DefaultObject); err != nil {
		t.Fatal(err)
	}
	if err := f.net.FindObjectAs(id, 5, DefaultObject); err == nil {
		t.Fatal("an outstanding find id was issued twice")
	}
	if _, issued := f.net.FindIssued(id); !issued || f.net.FindDone(id) {
		t.Fatalf("after its input: issued %v, done %v; want true, false", issued, f.net.FindDone(id))
	}
	f.settle()
	if len(f.founds) != 1 || f.founds[0].ID != id || !f.net.FindDone(id) || f.net.OutstandingFinds() != 0 {
		t.Fatalf("after its found: %d outputs, done %v, %d records; want 1, true, 0",
			len(f.founds), f.net.FindDone(id), f.net.OutstandingFinds())
	}
	next, err := f.net.Find(5)
	if err != nil {
		t.Fatal(err)
	}
	if next != id+1 {
		t.Errorf("FindObject issued %d after a caller-chosen %d, want the next id above it", next, id)
	}
}
