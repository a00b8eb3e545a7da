package tracker

import (
	"fmt"
	"testing"
	"time"

	"vinestalk/internal/geo"
	"vinestalk/internal/nethost"
	"vinestalk/internal/vsa"
)

// findHost is what the FindDone script needs of a host: the find API, a
// way to wait until the host is quiet (and, when answered is not nil,
// until it reports true), a second found output for a find
// at the evader's region, and the number of find records it holds.
type findHost struct {
	find      func(u geo.RegionID, obj ObjectID) (FindID, error)
	done      func(FindID) bool
	settle    func(answered func() bool)
	duplicate func(id FindID)
	records   func() int
	founds    func() int
}

// simFindHost is the oracle host (Network) with the evader at region at
// and a second client in that region, so every found output comes twice.
func simFindHost(t *testing.T, at geo.RegionID) findHost {
	f := newFixture(t, fixtureConfig{side: 4, start: at, alwaysUp: true})
	if _, err := f.net.AddClient(vsa.ClientID(100), at); err != nil {
		t.Fatal(err)
	}
	f.settle()
	return findHost{
		find:      f.net.FindObject,
		done:      f.net.FindDone,
		settle:    func(func() bool) { f.settle() },
		duplicate: func(id FindID) { f.net.reportFound(DefaultObject, FindPayload{ID: id, Origin: 0}, at) },
		records:   f.net.OutstandingFinds,
		founds:    func() int { return len(f.founds) },
	}
}

// netFindHost is the networked host with the object placed at region at;
// a duplicate found is a second found frame delivered to that region.
func netFindHost(t *testing.T, at geo.RegionID) findHost {
	founds := make(chan FindResult, 16)
	nh, svc := startNetHost(t, NetConfig{OnFound: func(r FindResult) { founds <- r }})
	if err := nh.PlaceObject(DefaultObject, at); err != nil {
		t.Fatal(err)
	}
	time.Sleep(40 * netTestUnit)
	n := 0
	count := func() int {
		for {
			select {
			case <-founds:
				n++
			default:
				return n
			}
		}
	}
	return findHost{
		find: nh.FindObject,
		done: nh.FindDone,
		settle: func(answered func() bool) {
			for giveUp := time.Now().Add(5 * time.Second); answered != nil && !answered() && time.Now().Before(giveUp); {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(40 * netTestUnit) // let duplicates and stragglers land
		},
		duplicate: func(id FindID) {
			payload, err := EncodeClusterMsg(nh.h.Cluster(at, 0), at, 0, DefaultObject, KindFound, []FindPayload{{ID: id, Origin: 0}})
			if err != nil {
				t.Fatal(err)
			}
			delivered := make(chan struct{})
			if err := svc.Inject(at, func(n *nethost.Node) {
				nh.DeliverFrame(n, KindFound, payload)
				close(delivered)
			}); err != nil {
				t.Fatal(err)
			}
			<-delivered
		},
		records: func() int {
			nh.mu.Lock()
			defer nh.mu.Unlock()
			return len(nh.started)
		},
		founds: count,
	}
}

// One script, both hosts, one FindDone rule: a find is done when it was
// issued on the host and is no longer outstanding. The script is an
// answered find, a duplicate found for it from the evader's region, a find
// outside the tiling and a find for an object no input has placed; both of
// the last are refused and take no id. Both hosts must answer FindDone
// identically for every id, report one found output, and hold no find
// record: none outlives its find.
func TestFindDoneRuleIsTheSameOnBothHosts(t *testing.T) {
	const (
		at       = geo.RegionID(5)
		origin   = geo.RegionID(15)
		outside  = geo.RegionID(999)
		untraced = ObjectID(77)
	)
	hosts := map[string]func(*testing.T, geo.RegionID) findHost{
		"oracle":    simFindHost,
		"networked": netFindHost,
	}
	answers := make(map[string]string)
	for name, build := range hosts {
		t.Run(name, func(t *testing.T) {
			h := build(t, at)
			answered, err := h.find(origin, DefaultObject)
			if err != nil {
				t.Fatal(err)
			}
			h.settle(func() bool { return h.done(answered) })
			h.duplicate(answered)
			if id, err := h.find(outside, DefaultObject); err == nil {
				t.Fatalf("a find at %v, outside the tiling, was issued as %d", outside, id)
			}
			if id, err := h.find(origin, untraced); err == nil {
				t.Fatalf("a find for object %v, which no input placed, was issued as %d", untraced, id)
			}
			next, err := h.find(origin, DefaultObject)
			if err != nil {
				t.Fatal(err)
			}
			h.settle(func() bool { return h.done(next) })
			if answered != 1 || next != 2 {
				t.Errorf("ids: first find %d, next find %d; want 1 and 2 (a refused find takes no id)", answered, next)
			}
			if n := h.founds(); n != 2 {
				t.Errorf("%d found outputs, want 2 (the duplicate is dropped)", n)
			}
			if n := h.records(); n != 0 {
				t.Errorf("%d find records, want 0: every issued find was answered", n)
			}
			var table string
			for id := FindID(0); id <= 4; id++ {
				table += fmt.Sprintf("%d:%v ", id, h.done(id))
			}
			answers[name] = table
		})
	}
	if answers["oracle"] != answers["networked"] {
		t.Errorf("FindDone differs across hosts:\noracle    %s\nnetworked %s", answers["oracle"], answers["networked"])
	}
	if want := "0:false 1:true 2:true 3:false 4:false "; answers["oracle"] != want {
		t.Errorf("FindDone table %q, want %q", answers["oracle"], want)
	}
}
