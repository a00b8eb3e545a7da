package main

import (
	"net"
	"strings"
	"testing"
	"time"

	"vinestalk/internal/geo"
	"vinestalk/internal/hier"
	"vinestalk/internal/nethost"
	"vinestalk/internal/tracker"
)

// FuzzControlExec feeds arbitrary control lines to a running 2×2 daemon:
// whatever the line, exec returns (no panic) exactly one reply line that is
// "" (quit) or starts with "ok " / "err ". Each seed is also held to the
// reply it must begin with ("" only for quit).
func FuzzControlExec(f *testing.F) {
	tiling := geo.MustGridTiling(2, 2)
	h := hier.MustGrid(tiling, 2)
	nh, err := tracker.NewNetHost(h, tracker.NetConfig{
		Geom:  hier.MeasureGeometry(h),
		Delta: 10 * time.Millisecond,
		Unit:  15 * time.Millisecond,
	})
	if err != nil {
		f.Fatal(err)
	}
	svc, err := nethost.New(nh, nethost.Config{NumRegions: tiling.NumRegions()})
	if err != nil {
		f.Fatal(err)
	}
	nh.Attach(svc)
	if err := svc.Start(); err != nil {
		f.Fatal(err)
	}
	f.Cleanup(svc.Stop)
	srv := &server{nh: nh, svc: svc, conns: make(map[net.Conn]bool)}

	for _, seed := range []struct{ line, want string }{
		{"place 1 1", "ok place"},
		{"move 1 1 9999", "err "},
		{"move 1 9999 1", "err "},
		{"place 4294967297 3", "err bad arguments"},
		{"place -1 3", "err bad arguments"},
		{"find 0 1", "ok find "},
		{"find 0 -5", "err bad arguments"},
		{"find 0 4294967297", "err bad arguments"},
		{"kill -1", "err region out of range"},
		{"kill 4", "err region out of range"},
		{"restart 4", "err region out of range"},
		{"alive 4", "err region out of range"},
		{"alive 3", "ok alive true"},
		{"alive 99999999999999999999", "err bad arguments"},
		{"stats", "ok stats {"},
		{"quit", ""},
		{"", "err empty command"},
		{"place " + strings.Repeat("9", 70_000) + " 0", "err bad arguments"},
	} {
		got := srv.exec(strings.Fields(seed.line))
		if !strings.HasPrefix(got, seed.want) || (seed.want == "") != (got == "") {
			f.Errorf("exec(%.40q) = %.80q, want %q…", seed.line, got, seed.want)
		}
		f.Add(seed.line)
	}

	f.Fuzz(func(t *testing.T, line string) {
		reply := srv.exec(strings.Fields(line))
		if strings.ContainsAny(reply, "\r\n") {
			t.Fatalf("exec(%q) reply spans lines: %q", line, reply)
		}
		if reply != "" && !strings.HasPrefix(reply, "ok ") && !strings.HasPrefix(reply, "err ") {
			t.Fatalf("exec(%q) = %q, want \"\", \"ok …\" or \"err …\"", line, reply)
		}
	})
}
