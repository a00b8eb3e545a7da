# Reproduction workflow targets. Everything is stdlib-only Go; no external
# tools are required beyond the Go toolchain.

GO ?= go

.PHONY: all build test test-short shuffle race vet cross lint nethost-smoke retention experiments experiments-quick experiments-smoke experiments-csv experiments-json chaos pairs profile profile-daemon fuzz cover clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# vet for two more architectures: arm64 checks internal/prefetch's PRFM
# stub against its Go declaration (vet's asmdecl), and riscv64, which has no
# stub, builds the no-op fallback. The Go toolchain cross-compiles on its
# own; nothing is downloaded.
cross:
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=riscv64 $(GO) vet ./...

# vet and gofmt, plus staticcheck when it is installed (CI installs it;
# locally it is optional — the toolchain stays stdlib-only).
lint: vet
	test -z "$$(gofmt -l . | grep -v '^.bench_build/')"
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipped (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Full suite in random test order — catches tests that lean on state left
# behind by an earlier test in the same package.
shuffle:
	$(GO) test -shuffle=on ./...

# Full suite under the race detector — the sweep engine's correctness bar.
race:
	$(GO) test -race ./...

# Networked-host smoke: the nethost runtime (its executor's kill, due-order,
# stop, inject-bound, goroutine-count, kind-table and hold-queue tests 20
# times over, for the block-and-kill interleavings and the service queue's
# run order), the daemon's control
# server (every line whole, replies in command order, every found on every
# connection, a stalled client cut off without stalling the others, a line
# past 64 KB answered and skipped; 5 times over) and the tracker-over-nethost integration tests (oracle parity,
# heal-after-kill, chaos conservation) under the race detector, plus the
# wire-codec fuzz seed corpora. The allocation and aliasing pins run under
# -race too: a frame costs one allocation from the outlet to Deliver, a
# wakeup and a TCP send none, a find held pending survives the next
# frame's decode into the node's scratch, and the frames match the
# reference wire encoding. The client-half parity test (one seeded client
# script on the oracle host and on NetHost: same sends, founds and find
# records) and the FindDone rule run 5 times over under -race, since control
# goroutines and the executor both reach NetHost's find registry.
nethost-smoke:
	$(GO) test -race ./internal/nethost
	$(GO) test -race -count=20 -run 'Kill|DueOrder|Stop|HoldQueue|Wakeup|Inject|StartAdds|ReceiveInterns' ./internal/nethost
	$(GO) test -race -count=5 -run 'TestControlProtocolIntegrity|TestStalledControlClientDoesNotStallDaemon|TestLongControlLineIsAnswered' ./cmd/vinestalkd
	$(GO) test -race -run 'TestNetHost|NetFrame|PendingFindSurvives' ./internal/tracker
	$(GO) test -race -count=5 -run 'OutsideNeighbourhood' ./internal/tracker
	$(GO) test -race -count=5 -run 'TestClientHalvesMatchOnBothHosts|TestFindDoneRuleIsTheSameOnBothHosts' ./internal/tracker
	$(GO) test -run 'TestNetHostMatchesOracleOnFixedSchedule' -count=10 ./internal/tracker
	$(GO) test -run 'FuzzDecodeRegion|FuzzDecodeClusterMessage' ./internal/tracker

# The heap pins: what settled move+find pairs, a settled fan-out, fan-out
# laps and laps on the emulated host retain, what an idle networked node
# keeps, and that a move and a spec-fold step allocate nothing and a
# Theorem 4.8 check costs the same after any number of moves. Without -race: under the race detector
# these heap figures include the race runtime's own bookkeeping.
retention:
	$(GO) test -count=1 -run 'Retain|SpecFold|KeepsNoHistory|CostDoesNotGrow' ./...

# Regenerate every paper claim (EXPERIMENTS.md tables).
experiments:
	$(GO) run ./cmd/experiments

experiments-quick:
	$(GO) run ./cmd/experiments -quick

# Quick suite with the JSON export, then the byte-identity check across
# worker counts.
experiments-smoke:
	$(GO) run ./cmd/experiments -quick -parallel 4 -json results
	$(GO) run ./cmd/experiments -quick -parallel 1 > results/quick-seq.txt
	$(GO) run ./cmd/experiments -quick -parallel 8 > results/quick-par.txt
	diff -u results/quick-seq.txt results/quick-par.txt

# Adversarial schedules: the full E11 sweep (24 fault runs) at two chaos
# seeds, plus a same-seed byte-identity check across worker counts.
chaos:
	$(GO) run ./cmd/experiments -only E11
	$(GO) run ./cmd/experiments -only E11 -chaos-seed 1
	mkdir -p results
	$(GO) run ./cmd/experiments -only E11 -parallel 1 > results/e11-seq.txt
	$(GO) run ./cmd/experiments -only E11 -parallel 8 > results/e11-par.txt
	diff -u results/e11-seq.txt results/e11-par.txt
	@echo "chaos: E11 deterministic and violation-free at both seeds"

# Performance evidence: alternating parent/change pairs of the benchmark
# (benchmark/README.md, "Paired runs"), read with -compare. PARENT is
# resolved to a commit of this checkout; the checkout is cloned into the
# gitignored .bench_build/pairs/parent and that commit checked out there (a
# clone, not a worktree: the checkout's own .git is only read). The change
# side is the working tree. Each side builds and runs in its own tree (so
# neither reads the other's files or build cache), seeds run 1…N with the side
# that goes first alternating, the runs land in .bench_build/pairs/{A,B}.jsonl,
# and every run's last line, labelled "workload seed side", is kept in
# .bench_build/pairs/runs.txt.
# PARENT, N and W are knobs of this developer tool, not of the system:
#	make pairs                          # HEAD~1 vs the working tree, 10 seeds, all four workloads
#	make pairs PARENT=08cbe4f N=3 W=walk64
PARENT ?= HEAD~1
N ?= 10
W ?= walk64 fanout128k fanout128k-k2 daemon8
PAIRS := $(CURDIR)/.bench_build/pairs

pairs:
	mkdir -p $(PAIRS)
	rm -rf $(PAIRS)/parent $(PAIRS)/A.jsonl $(PAIRS)/B.jsonl $(PAIRS)/runs.txt
	rev=$$(git rev-parse --verify '$(PARENT)^{commit}') && \
		git clone -q --shared --no-checkout $(CURDIR) $(PAIRS)/parent && \
		git -C $(PAIRS)/parent checkout -q --detach $$rev
	set -e; for i in $$(seq 1 $(N)); do for w in $(W); do \
		if [ $$((i % 2)) -eq 1 ]; then sides="parent change"; else sides="change parent"; fi; \
		for side in $$sides; do \
			if [ $$side = parent ]; then dir=$(PAIRS)/parent; out=$(PAIRS)/A.jsonl; else dir=$(CURDIR); out=$(PAIRS)/B.jsonl; fi; \
			echo "== $$w seed $$i: $$side"; \
			(cd $$dir && bash benchmark/run.sh --workload $$w --seed $$i -out $$out) > $(PAIRS)/last-run.txt; \
			line=$$(tail -n 1 $(PAIRS)/last-run.txt); \
			echo "$$line"; \
			echo "$$w $$i $$side $$line" >> $(PAIRS)/runs.txt; \
		done; \
	done; done
	rm -rf $(PAIRS)/parent
	$(GO) run ./benchmark -compare $(PAIRS)/A.jsonl $(PAIRS)/B.jsonl

# Where the time and the memory go on one benchmark workload: the benchmark
# program itself, unedited, under the profilers of `go test`. The non-test
# files of benchmark/ are copied into the gitignored .bench_build/profile/
# next to a generated test (PROFILE_TEST below) that calls the package's own
# run(args) — so the test binary starts and flushes the profiles and no
# os.Exit cuts them off. While the run goes, the test reads the live heap
# every 100 ms (runtime/metrics, no stop-the-world) and, whenever it passes
# its previous peak by 5 %, rewrites heap.prof from the heap profile, so
# heap.prof is the heap at its peak, not mem.prof's end-of-test garbage.
# The CPU profile's top 40 is printed, then heap.prof's in-use top 20, then
# mem.prof's top 15 allocation sites by objects allocated over the whole run
# (what the garbage collector is fed); cpu.prof, heap.prof, mem.prof and the
# binary stay there for `go tool pprof -list`, `-sample_index=alloc_space`, ….
# W, SECONDS, SEED and ARGS are knobs of this developer tool, not of the system:
#	make profile                                  # walk64, seed 1, 10 s
#	make profile W=fanout128k SECONDS=6 SEED=3
#	make profile W=daemon8 ARGS=-smoke            # what CI runs
PROFILE := $(CURDIR)/.bench_build/profile
profile: W := $(if $(filter file,$(origin W)),walk64,$(W))
SECONDS ?= 10
SEED ?= 1
ARGS ?=

define PROFILE_TEST
package main

import (
	"fmt"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestProfile(t *testing.T) {
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		watchHeap("heap.prof", stop)
	}()
	code := run(strings.Fields(os.Getenv("BENCH_ARGS")))
	close(stop)
	<-stopped
	if code != 0 {
		t.Fatalf("benchmark exited %d", code)
	}
}

// watchHeap reads the live heap every 100 ms until stop closes, and rewrites
// path from the heap profile whenever the live heap passes its previous peak
// by 5 %.
func watchHeap(path string, stop <-chan struct{}) {
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var peak uint64
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		metrics.Read(live)
		if v := live[0].Value.Uint64(); v > 0 && v >= peak+peak/20 {
			peak = v
			f, err := os.Create(path)
			if err == nil {
				err = pprof.Lookup("heap").WriteTo(f, 0)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "heap profile:", err)
			}
		}
	}
}
endef
export PROFILE_TEST

profile:
	rm -rf $(PROFILE)
	mkdir -p $(PROFILE)
	cp $$(ls benchmark/*.go | grep -v _test.go) $(PROFILE)/
	printf '%s\n' "$$PROFILE_TEST" > $(PROFILE)/profile_test.go
	BENCH_ARGS="-workload $(W) -seconds $(SECONDS) -seed $(SEED) $(ARGS)" \
		$(GO) test ./.bench_build/profile -run TestProfile -count=1 -timeout 30m \
		-o $(PROFILE)/profile.test -cpuprofile $(PROFILE)/cpu.prof -memprofile $(PROFILE)/mem.prof
	$(GO) tool pprof -top -nodecount=40 $(PROFILE)/profile.test $(PROFILE)/cpu.prof
	$(GO) tool pprof -sample_index=inuse_space -top -nodecount=20 $(PROFILE)/profile.test $(PROFILE)/heap.prof
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount=15 $(PROFILE)/profile.test $(PROFILE)/mem.prof

# Where the daemon's CPU and allocations go: BenchmarkDaemonFinds
# (cmd/vinestalkd's server_test.go: daemon8's shape in one process — 8×8,
# 2 048 objects, two loopback control connections, a closed loop of finds)
# under the CPU and memory profilers, then the CPU profile's top 40 and the
# top 20 allocation sites by objects allocated. It reports cpu-µs/find, the
# process's CPU per find, daemon and clients together, and allocations per
# find (-benchmem). cpu.prof, mem.prof and the test binary stay in the
# gitignored .bench_build/profile-daemon/ for `go tool pprof -list`. FINDS
# is a knob of this developer tool, not of the system:
#	make profile-daemon                 # 20 000 finds, ≈ 10 s
#	make profile-daemon FINDS=2000
PROFILE_DAEMON := $(CURDIR)/.bench_build/profile-daemon
FINDS ?= 20000

profile-daemon:
	rm -rf $(PROFILE_DAEMON)
	mkdir -p $(PROFILE_DAEMON)
	$(GO) test ./cmd/vinestalkd -run '^$$' -bench '^BenchmarkDaemonFinds$$' -benchtime $(FINDS)x -count=1 -benchmem \
		-o $(PROFILE_DAEMON)/vinestalkd.test -cpuprofile $(PROFILE_DAEMON)/cpu.prof -memprofile $(PROFILE_DAEMON)/mem.prof
	$(GO) tool pprof -top -nodecount=40 $(PROFILE_DAEMON)/vinestalkd.test $(PROFILE_DAEMON)/cpu.prof
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount=20 $(PROFILE_DAEMON)/vinestalkd.test $(PROFILE_DAEMON)/mem.prof

# Write the tables as CSV into ./results.
experiments-csv:
	$(GO) run ./cmd/experiments -csv results

# Write machine-readable results (tables, shape checks, ledger exports
# with drop-cause counters and latency histograms) into ./results.
experiments-json:
	$(GO) run ./cmd/experiments -json results

# Short exploratory fuzz sessions over the spec, lookAhead under injected
# transit sets, the hierarchy builder, the two tracker codecs (region state,
# decoded on an oracle host so its wakeups are reconciled too, and cluster
# wire messages) and the daemon's control-line parser.
fuzz:
	$(GO) test -fuzz=FuzzAtomicMoveWalk -fuzztime=30s ./internal/lookahead
	$(GO) test -run '^FuzzLookAheadTransits$$' -fuzz='^FuzzLookAheadTransits$$' -fuzztime=30s ./internal/lookahead
	$(GO) test -fuzz=FuzzGridHierarchy -fuzztime=30s ./internal/hier
	$(GO) test -fuzz=FuzzLandmarkHierarchy -fuzztime=30s ./internal/hier
	$(GO) test -run '^FuzzDecodeRegion$$' -fuzz='^FuzzDecodeRegion$$' -fuzztime=30s ./internal/tracker
	$(GO) test -run '^FuzzDecodeClusterMessage$$' -fuzz='^FuzzDecodeClusterMessage$$' -fuzztime=30s ./internal/tracker
	$(GO) test -run '^FuzzControlExec$$' -fuzz='^FuzzControlExec$$' -fuzztime=30s ./cmd/vinestalkd

cover:
	$(GO) test -cover ./...

clean:
	$(GO) clean ./...
	rm -rf results
