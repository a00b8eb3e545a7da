package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// metricDef names one reported metric. The tables below are the program's
// own list; bench_test.go pins them to BENCHMARK.json so the two cannot
// drift apart.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd is what a user of the system sees. Every workload reports every
// one of them (the contract of BENCHMARK.json), so each is defined per
// workload in README.md; host time and virtual time never share a metric.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"find_midmean_us", "us", "lower"},
	{"find_p95_us", "us", "lower"},
	{"cpu_us_per_op", "us", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"hopwork_per_op", "hops", "lower"},
}

// perLayer is one entry per layer counter or self time, named
// <package>.<metric>. A metric that does not apply to a workload reads 0.
var perLayer = []metricDef{
	{"sim.events", "count", "lower"},
	{"sim.ns_per_event", "ns", "lower"},
	{"sim.allocs_per_event", "count", "lower"},
	{"sim.sharded_rounds", "count", "lower"},
	{"sim.sharded_cross_sends", "count", "lower"},
	{"sim.sharded_balance", "ratio", "lower"},
	{"sim.sharded_ns_per_event", "ns", "lower"},
	{"geo.precompute_s", "s", "lower"},
	{"hier.build_s", "s", "lower"},
	{"core.new_s", "s", "lower"},
	{"core.warmup_s", "s", "lower"},
	{"tracker.attach_objects_per_s", "1/s", "higher"},
	{"vbcast.ns_per_send", "ns", "lower"},
	{"geocast.sends", "count", "lower"},
	{"geocast.hops", "count", "lower"},
	{"geocast.ns_per_hop", "ns", "lower"},
	{"geocast.allocs_per_hop", "count", "lower"},
	{"cgcast.msgs", "count", "lower"},
	{"cgcast.frames", "count", "lower"},
	{"cgcast.msgs_per_frame", "ratio", "higher"},
	{"cgcast.ns_per_msg_unbatched", "ns", "lower"},
	{"cgcast.ns_per_msg_batched", "ns", "lower"},
	{"cgcast.allocs_per_msg", "count", "lower"},
	{"tracker.ns_per_msg", "ns", "lower"},
	{"tracker.allocs_per_msg", "count", "lower"},
	{"tracker.bytes_per_msg", "B", "lower"},
	{"tracker.msgs_per_move", "count", "lower"},
	{"tracker.msgs_per_find", "count", "lower"},
	{"tracker.hopwork_per_move", "hops", "lower"},
	{"tracker.hopwork_per_find", "hops", "lower"},
	{"tracker.encode_ns_per_region", "ns", "lower"},
	{"tracker.encode_bytes_per_region", "B", "lower"},
	{"tracker.decode_ns_per_region", "ns", "lower"},
	{"tracker.wire_ns_per_msg", "ns", "lower"},
	{"metrics.ledger_ns_per_record", "ns", "lower"},
	{"metrics.snapshot_us", "us", "lower"},
	{"runtime.allocs_per_op", "count", "lower"},
	{"runtime.bytes_per_op", "B", "lower"},
	{"core.find_p50_us", "us", "lower"},
	{"core.find_p99_us", "us", "lower"},
	{"core.move_p50_us", "us", "lower"},
	{"core.move_p99_us", "us", "lower"},
	{"core.sim_find_p99_ms", "ms", "lower"},
	{"core.trace_overhead_pct", "%", "lower"},
	{"core.layer_sum_pct", "%", "lower"},
	{"core.parallel_merge_s", "s", "lower"},
	{"nethost.frame_rtt_us_p50", "us", "lower"},
	{"nethost.frame_rtt_tcp_us_p50", "us", "lower"},
	{"nethost.frames_per_find", "count", "lower"},
	{"nethost.drops", "count", "lower"},
	{"nethost.conservation_gap", "count", "lower"},
	{"nethost.find_ledger_p99_ms", "ms", "lower"},
	{"vinestalkd.find_wall_p50_ms", "ms", "lower"},
	{"vinestalkd.find_wall_p99_ms", "ms", "lower"},
	{"vinestalkd.sat_finds_per_s", "1/s", "higher"},
	{"vinestalkd.ctl_rtt_us_p50", "us", "lower"},
	{"vinestalkd.ctl_rtt_loaded_us_p99", "us", "lower"},
	{"vinestalkd.cpu_util_open", "ratio", "lower"},
	{"vinestalkd.cpu_us_per_op_open", "us", "lower"},
	{"host.stolen_pct", "%", "lower"},
	{"host.pace", "ratio", "lower"},
	{"loadgen.late_p99_ms", "ms", "lower"},
	{"loadgen.late_max_ms", "ms", "lower"},
	{"loadgen.stall_max_ms", "ms", "lower"},
	{"loadgen.cpu_s", "s", "lower"},
}

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"walk64", "fanout128k", "fanout128k-k2", "daemon8"}

// benchSpec mirrors BENCHMARK.json. -compare reads the bounds from it and
// the default of -seconds is its run_seconds.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// findRoot walks up from the working directory to the module root, so the
// benchmark runs the same from the repository root (go run ./benchmark) and
// from its own directory (go test).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "vinestalkd")); err == nil {
				return dir, nil
			}
		}
		up := filepath.Dir(dir)
		if up == dir {
			return "", errors.New("benchmark: module root (go.mod with cmd/vinestalkd) not found above the working directory")
		}
		dir = up
	}
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}
