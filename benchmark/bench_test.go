package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func testOptions(t *testing.T, workload string, trace bool) options {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	o := options{workload: workload, seed: 7, smoke: true, trace: trace, root: root,
		buildDir: filepath.Join(root, ".bench_build")}
	if trace {
		o.spans = newSpanLog()
		o.traceOut = filepath.Join(t.TempDir(), "spans.json")
	}
	return o
}

func runSmoke(t *testing.T, workload string, trace bool) (*result, options) {
	t.Helper()
	o := testOptions(t, workload, trace)
	var res *result
	var err error
	switch workload {
	case "walk64":
		res, err = runWalk(o)
	case "fanout128k":
		res, err = runFanout(o, 0)
	case "fanout128k-k2":
		res, err = runFanout(o, 2)
	case "daemon8":
		res, err = runDaemon(o, make(chan struct{}))
	}
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%s: correct=%v failed=%d: %v", workload, res.Correct, res.Failed, res.Problems)
	}
	return res, o
}

// TestSpecMatchesBenchmarkJSON pins the program's metric tables and workload
// list to BENCHMARK.json, name for name and unit for unit.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads: BENCHMARK.json has %v, the program %v", names, workloadNames)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of range", spec.RunSeconds)
	}
	var e2e, layer []metricDef
	var setupBound, maxBound float64
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		if m.Bound > maxBound {
			maxBound = m.Bound
		}
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n prog %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n prog %v", layer, perLayer)
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s must be present and carry the largest bound (has %v, largest %v)", setupBound, maxBound)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", spec.Paths)
	}
}

// checkFinalLine asserts the printed result names exactly the declared
// metrics of its kind, each with its unit, and nothing else.
func checkFinalLine(t *testing.T, res *result, o options) {
	t.Helper()
	var buf bytes.Buffer
	if err := report(&buf, res, o); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	var top map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &top); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	if len(top) != 4 || top["correct"] == nil || top["attempted"] == nil || top["failed"] == nil || top["metrics"] == nil {
		t.Fatalf("last line keys = %v, want exactly correct, attempted, failed, metrics", keys)
	}
	var fl finalLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &fl); err != nil {
		t.Fatal(err)
	}
	if fl.Attempted < 1 {
		t.Errorf("attempted = %d", fl.Attempted)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	if len(fl.Metrics) != len(defs) {
		t.Errorf("%s printed %d metrics, %d declared", res.Workload, len(fl.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := fl.Metrics[d.Name]
		if !ok {
			t.Errorf("%s: metric %s not printed", res.Workload, d.Name)
			continue
		}
		if m.Unit != d.Unit {
			t.Errorf("%s: %s printed with unit %q, declared %q", res.Workload, d.Name, m.Unit, d.Unit)
		}
		if !o.trace && m.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s = %v, must never be 0", res.Workload, d.Name, m.Value)
		}
	}
}

// TestSmokeSimWorkloads runs the three simulator workloads at smoke scale,
// twice with one seed: the exact results must repeat, the two fan-out hosts
// must agree on the state digest, and the printed metrics must be the
// declared ones.
func TestSmokeSimWorkloads(t *testing.T) {
	exact := map[string]map[string]string{}
	for _, w := range []string{"walk64", "fanout128k", "fanout128k-k2"} {
		first, o := runSmoke(t, w, false)
		checkFinalLine(t, first, o)
		second, _ := runSmoke(t, w, false)
		if !reflect.DeepEqual(first.Exact, second.Exact) {
			t.Errorf("%s: exact results differ between two runs of one seed:\n %v\n %v", w, first.Exact, second.Exact)
		}
		if first.Exact["digest"] == "" {
			t.Errorf("%s: no digest", w)
		}
		if first.E2E["hopwork_per_op"] != second.E2E["hopwork_per_op"] {
			t.Errorf("%s: hopwork_per_op %v vs %v", w, first.E2E["hopwork_per_op"], second.E2E["hopwork_per_op"])
		}
		exact[w] = first.Exact
	}
	a, b := exact["fanout128k"], exact["fanout128k-k2"]
	for _, k := range []string{"digest", "hopwork", "proto_msgs", "sim_find_p99", "exact_ops"} {
		if a[k] != b[k] {
			t.Errorf("fanout128k and fanout128k-k2 disagree on %s: %s vs %s", k, a[k], b[k])
		}
	}
}

// TestSmokeTraced runs the traced, per-layer mode of the simulator workloads:
// every per-layer name is printed, the span file is written and parses, and
// the layers the workload loads have a price.
func TestSmokeTraced(t *testing.T) {
	want := map[string][]string{
		"walk64": {"sim.events", "sim.ns_per_event", "vbcast.ns_per_send", "geocast.ns_per_hop", "cgcast.ns_per_msg_unbatched",
			"cgcast.ns_per_msg_batched", "tracker.ns_per_msg", "tracker.msgs_per_move", "tracker.hopwork_per_find",
			"tracker.encode_ns_per_region", "tracker.decode_ns_per_region", "tracker.wire_ns_per_msg",
			"metrics.ledger_ns_per_record", "metrics.snapshot_us", "geo.precompute_s", "hier.build_s", "core.new_s",
			"runtime.allocs_per_op", "core.layer_sum_pct", "cgcast.msgs_per_frame"},
		"fanout128k": {"sim.events", "cgcast.msgs_per_frame", "cgcast.frames", "tracker.ns_per_msg",
			"tracker.attach_objects_per_s", "core.warmup_s", "runtime.bytes_per_op"},
		"fanout128k-k2": {"sim.sharded_rounds", "sim.sharded_cross_sends", "sim.sharded_balance",
			"sim.sharded_ns_per_event", "core.parallel_merge_s", "tracker.attach_objects_per_s"},
	}
	for w, names := range want {
		res, o := runSmoke(t, w, true)
		checkFinalLine(t, res, o)
		for _, n := range names {
			if res.Layer[n] == 0 {
				t.Errorf("%s: per-layer metric %s is 0", w, n)
			}
		}
		if _, ok := res.Layer["core.trace_overhead_pct"]; w != "fanout128k-k2" && !ok {
			t.Errorf("%s: core.trace_overhead_pct not reported", w)
		}
		if err := o.spans.write(o.traceOut, nil); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(o.traceOut)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Spans []span `json:"spans"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("%s: span file: %v", w, err)
		}
		if len(doc.Spans) < 5 {
			t.Errorf("%s: only %d spans", w, len(doc.Spans))
		}
		for i, s := range doc.Spans {
			if s.Name == "" || s.EndNs < s.StartNs || s.Parent >= i {
				t.Errorf("%s: span %d malformed: %+v", w, i, s)
				break
			}
		}
	}
}

// TestSmokeDaemon drives the real vinestalkd binary at smoke scale, once,
// traced: the traced run measures the end-to-end set too, so both final
// lines are checked from it. It builds the daemon, so it is skipped under
// -short.
func TestSmokeDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs cmd/vinestalkd")
	}
	res, o := runSmoke(t, "daemon8", true)
	checkFinalLine(t, res, o)
	untraced := o
	untraced.trace = false
	checkFinalLine(t, res, untraced)
	if gap, ok := res.Layer["nethost.conservation_gap"]; !ok || gap != 0 {
		t.Errorf("conservation gap %v (reported: %v)", gap, ok)
	}
	for _, n := range []string{"nethost.frame_rtt_us_p50", "nethost.frame_rtt_tcp_us_p50", "nethost.frames_per_find",
		"nethost.find_ledger_p99_ms", "vinestalkd.ctl_rtt_us_p50", "vinestalkd.ctl_rtt_loaded_us_p99",
		"vinestalkd.find_wall_p50_ms", "vinestalkd.sat_finds_per_s", "vinestalkd.cpu_util_open",
		"loadgen.late_max_ms", "loadgen.cpu_s", "tracker.wire_ns_per_msg"} {
		if res.Layer[n] == 0 {
			t.Errorf("daemon8: per-layer metric %s is 0", n)
		}
	}
}
