package main

import (
	"strings"
	"testing"
	"time"

	"vinestalk/internal/geo"
	"vinestalk/internal/hier"
)

// FuzzControlExec feeds arbitrary control lines to a running 2×2 daemon:
// whatever the line, exec returns (no panic) exactly one reply line that is
// "" (quit) or starts with "ok " / "err ". Each seed is also held to the
// reply it must begin with ("" only for quit).
func FuzzControlExec(f *testing.F) {
	srv, err := newServer(hier.MustGrid(geo.MustGridTiling(2, 2), 2), 10*time.Millisecond, 5*time.Millisecond, 0, nil)
	if err != nil {
		f.Fatal(err)
	}
	if err := srv.svc.Start(); err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.svc.Stop)

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
