package main

import (
	"strings"
	"testing"
	"time"

	"vinestalk/internal/geo"
	"vinestalk/internal/hier"
)

// FuzzControlExec feeds arbitrary control lines to a running 2×2 daemon,
// split as the connection handler splits them: whatever the line, exec
// returns (no panic) exactly one reply line that is "" (quit) or starts
// with "ok " / "err ". Each seed is also held to the reply it must begin
// with ("" only for quit).
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
		got := execLine(srv, seed.line)
		if !strings.HasPrefix(got, seed.want) || (seed.want == "") != (got == "") {
			f.Errorf("exec(%.40q) = %.80q, want %q…", seed.line, got, seed.want)
		}
		f.Add(seed.line)
	}

	f.Fuzz(func(t *testing.T, line string) {
		reply := execLine(srv, line)
		if strings.ContainsAny(reply, "\r\n") {
			t.Fatalf("exec(%q) reply spans lines: %q", line, reply)
		}
		if reply != "" && !strings.HasPrefix(reply, "ok ") && !strings.HasPrefix(reply, "err ") {
			t.Fatalf("exec(%q) = %q, want \"\", \"ok …\" or \"err …\"", line, reply)
		}
	})
}

// execLine runs one control line through splitFields and exec, as handle
// does, and returns the reply, "" for quit.
func execLine(srv *server, line string) string {
	reply, quit := srv.exec(nil, splitFields(nil, []byte(line)))
	if quit {
		return ""
	}
	return string(reply)
}

// TestSplitFieldsMatchesStringsFields: on ASCII lines, splitFields cuts the
// same fields as strings.Fields, and a find line is split and executed
// without allocating.
func TestSplitFieldsMatchesStringsFields(t *testing.T) {
	for _, line := range []string{
		"", " ", "find 3 7", "  find\t3   7  ", "place 1 2\r", "\v\fstats\n", "a", "a  b\tc",
	} {
		var got []string
		for _, f := range splitFields(nil, []byte(line)) {
			got = append(got, string(f))
		}
		if want := strings.Fields(line); strings.Join(got, "|") != strings.Join(want, "|") || len(got) != len(want) {
			t.Errorf("splitFields(%q) = %q, want %q", line, got, want)
		}
	}
}

// TestControlLineAllocatesNothing: splitting a control line and building
// its reply allocate nothing — checked on alive, whose command does not
// allocate either (a find's own cost is the tracker's).
func TestControlLineAllocatesNothing(t *testing.T) {
	srv, err := newServer(hier.MustGrid(geo.MustGridTiling(2, 2), 2), 10*time.Millisecond, 5*time.Millisecond, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.svc.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.svc.Stop)
	line := []byte("  alive\t3 ")
	fields := splitFields(nil, line)
	reply := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(1000, func() {
		fields = splitFields(fields[:0], line)
		reply, _ = srv.exec(reply[:0], fields)
	})
	if string(reply) != "ok alive true" {
		t.Fatalf("alive 3: %q", reply)
	}
	if allocs != 0 {
		t.Fatalf("a control line allocates %.1f times, want 0", allocs)
	}
}
