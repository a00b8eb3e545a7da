package geocast

import "vinestalk/internal/geo"

// AliveNextHopForTest exposes the epoch-cached failover lookup to external
// test packages. The chaos-driven property test must live outside package
// geocast: importing internal/chaos here would close an import cycle
// (chaos → tracker → cgcast → geocast).
func (s *Service) AliveNextHopForTest(cur, to geo.RegionID) geo.RegionID {
	return s.aliveNextHop(cur, to)
}

// RoutesForTest reports how many route records were ever allocated and how
// many sit in the free list: the difference is the messages in flight.
func (s *Service) RoutesForTest() (made, free int) { return s.made, len(s.free) }
