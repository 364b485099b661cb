package main

import (
	"encoding/json"
	"regexp"

	"repro/internal/exp"
)

// workloadDef names one workload and records why the benchmark runs it.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// The workloads, in the order --workload all runs them.
var workloads = []workloadDef{
	{"paper-suite", "every registered experiment at -j 1 with the in-memory RunCache: event loop, energy, fork, ptcp and rendering"},
	{"campaign-cold", "wild grid at 0.25 and 16 MB into an empty store; seeds overflow the seed-state cache, so per-run fixed costs show"},
	{"campaign-warm", "the cold grid replayed from a filled store in a fresh process: keying, store reads and folding, no simulation"},
	{"campaign-served", "the cold grid in small shards over loopback: coordinator at -j 1 plus one worker process; lease, codec and HTTP"},
}

// metricDef is one metric as BENCHMARK.json lists it. Bound is set only
// for end-to-end metrics.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func bound(b float64) *float64 { return &b }

// endToEnd lists the gated metrics every untraced run prints, on every
// workload. Bounds are the share of the parent's median by which a
// metric may worsen before a change counts as a regression. Times are
// CPU seconds: on a shared 2-vCPU VM, hypervisor steal moved the
// medians of wall-clock times by up to 40% between sets of runs of the
// same code, and CPU time by about 15%. Peak RSS moves with the GC's
// timing, which differs from seed to seed; store bytes are exact.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", bound(0.25)},
	{"cpu_s", "s", "lower", bound(0.25)},
	{"peak_rss_mb", "MB", "lower", bound(0.25)},
	{"store_mb", "MB", "lower", bound(0.05)},
}

// wallClock lists the end-to-end metrics a user waits on. Every untraced
// run prints them beside endToEnd, but they are not gated, because
// steal moves them more than any bound would tolerate.
var wallClock = []metricDef{
	{"suite_s", "s", "lower", nil},
	{"runs_per_s", "runs/s", "higher", nil},
	{"setup_wall_s", "s", "lower", nil},
}

// layerMetrics lists the per-layer metrics after the per-experiment
// spans; perLayer splices those in from the experiment registry.
var layerMetrics = []metricDef{
	{"report.render_ms", "ms", "lower", nil},
	{"scenario.runcache_hit_share", "fraction", "higher", nil},
	{"scenario.fork_runs", "count", "higher", nil},
	{"simrng.seed_miss_us", "us", "lower", nil},
	{"simrng.seed_hit_us", "us", "lower", nil},
	{"scenario.key_us", "us", "lower", nil},
	{"scenario.assemble_us", "us", "lower", nil},
	{"scenario.run_small_us", "us", "lower", nil},
	{"scenario.run_large_us", "us", "lower", nil},
	{"lockstep.lane_us", "us", "lower", nil},
	{"lockstep.lane_share", "fraction", "higher", nil},
	{"lockstep.peel_share", "fraction", "lower", nil},
	{"sim.fires_per_run", "count", "lower", nil},
	{"tcp.rounds_per_run", "count", "lower", nil},
	{"mptcp.picks_per_run", "count", "lower", nil},
	{"energy.radio_transitions_per_run", "count", "lower", nil},
	{"core.path_sets_per_run", "count", "lower", nil},
	{"sim.fire_ns", "ns", "lower", nil},
	{"sim.simsec_per_run", "s", "lower", nil},
	{"eib.generate_ms", "ms", "lower", nil},
	{"ptcp.packet_ns", "ns", "lower", nil},
	{"runcache.open_ms", "ms", "lower", nil},
	{"runcache.get_us", "us", "lower", nil},
	{"runcache.hit_share", "fraction", "higher", nil},
	{"runcache.put_us", "us", "lower", nil},
	{"runcache.close_ms", "ms", "lower", nil},
	{"stats.fold_ns", "ns", "lower", nil},
	{"campaign.new_ms", "ms", "lower", nil},
	{"campaign.execute_s", "s", "lower", nil},
	{"campaign.result_ms", "ms", "lower", nil},
	{"campaign.sim_share", "fraction", "lower", nil},
	{"campaign.disk_hit_share", "fraction", "higher", nil},
	{"campaign.lease_ms_p50", "ms", "lower", nil},
	{"campaign.lease_ms_tail", "ms", "lower", nil},
	{"campaign.shard_post_ms_p50", "ms", "lower", nil},
	{"campaign.shard_post_ms_tail", "ms", "lower", nil},
	{"campaign.status_ms_p50", "ms", "lower", nil},
	{"campaign.status_ms_tail", "ms", "lower", nil},
	{"campaign.status_late_ms", "ms", "lower", nil},
	{"campaign.requests_per_krun", "count", "lower", nil},
	{"campaign.remote_share", "fraction", "higher", nil},
	{"campaign.shard_body_bytes", "bytes", "lower", nil},
	{"ledger.unaccounted_pct", "%", "lower", nil},
	{"trace.overhead_pct", "%", "lower", nil},
	{"host.steal_pct", "%", "lower", nil},
}

// expMetric is the per-layer metric name of one experiment's span.
func expMetric(id string) string { return "exp." + id + "_ms" }

// perLayer returns every per-layer metric: one span metric per
// registered experiment, then layerMetrics.
func perLayer() []metricDef {
	var out []metricDef
	for _, id := range exp.IDs() {
		out = append(out, metricDef{expMetric(id), "ms", "lower", nil})
	}
	return append(out, layerMetrics...)
}

// nameSyntax is the metric and workload name rule: a letter or digit,
// then at most 63 letters, digits, '_', '.' and '-'.
var nameSyntax = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// runSeconds is how long one run measures, as BENCHMARK.json states it.
const runSeconds = 25

// benchmarkJSON renders BENCHMARK.json from the registries above, so the
// file and the printed names cannot drift apart (TestBenchmarkJSON).
func benchmarkJSON() ([]byte, error) {
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer(),
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	return append(b, '\n'), err
}
