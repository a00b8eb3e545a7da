package nethost

import (
	"math"
	"testing"

	"vinestalk/internal/geo"
	"vinestalk/internal/sim"
)

// FuzzServiceReceive feeds arbitrary bytes, as a frame sent twice, into a
// started two-region Service over ChanTransport; with kill set, region 1
// is killed between the two sends. The service must not panic, and once it
// has stopped each Receive must have resolved to exactly one delivery or
// one named drop across the ledger's rows, net/malformed included.
func FuzzServiceReceive(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1}, false)                                // a short header
	f.Add(encodeFrame(geo.RegionID(-1), 0, "k", []byte{1}), false)  // a negative destination
	f.Add(encodeFrame(0, 0, "unknown", []byte{1}), false)           // an unknown kind
	f.Add(encodeFrame(2, 0, "k", []byte{1}), false)                 // a region past the last slot
	f.Add(encodeFrame(1, 0, "k", []byte{1}), true)                  // a killed node
	f.Add(encodeFrame(0, 0, "k", []byte("x")), false)               // delivered
	f.Add(encodeFrame(1, sim.Time(math.MaxInt64), "k", nil), false) // held until Stop
	f.Fuzz(func(t *testing.T, frame []byte, kill bool) {
		tr := NewChanTransport()
		s, err := New(&recApp{}, Config{NumRegions: 2, Transport: tr})
		if err != nil {
			t.Fatal(err)
		}
		s.RegisterKinds("k")
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		// The transport hands the frame itself to Receive, which keeps it.
		send := func() {
			if err := tr.Send(0, append([]byte(nil), frame...)); err != nil {
				t.Fatal(err)
			}
		}
		send()
		if kill {
			s.KillRegion(1)
		}
		send()
		s.Stop()
		snap := s.LedgerSnapshot()
		var resolved int64
		for _, n := range snap.Delivered {
			resolved += n
		}
		for row, causes := range snap.Drops {
			for cause, n := range causes {
				if cause == "" {
					t.Fatalf("%d drops on %s name no cause", n, row)
				}
				resolved += n
			}
		}
		if resolved != 2 {
			t.Fatalf("2 frames received, %d resolved: delivered %v, drops %v", resolved, snap.Delivered, snap.Drops)
		}
	})
}
