// Package exp is the experiment harness: one runner per table and figure
// in the paper's evaluation, each regenerating the same rows or series the
// paper reports (shape, not absolute testbed numbers). The per-experiment
// index lives in DESIGN.md §3; measured-vs-paper results are recorded in
// EXPERIMENTS.md.
package exp

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/energy"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Config parameterizes an experiment run.
type Config struct {
	// Device is the handset model; nil selects the Galaxy S3, the
	// paper's primary device.
	Device *energy.DeviceProfile
	// BaseSeed offsets all run seeds, for re-running with fresh draws.
	BaseSeed int64
	// Quick shrinks transfer sizes and repetition counts (~10x) so the
	// whole suite can run in benchmark loops; headline shapes persist.
	Quick bool
	// Jobs caps the worker count for repeated seeded runs: 1 forces the
	// sequential path, 0 (or negative) selects all cores. Results are
	// merged in seed order, so output is byte-identical at any setting.
	Jobs int
	// Trace, when non-nil, collects structured per-run trace events and
	// metrics: every repeated-run group reserves one recorder slot per
	// seeded run, and the collector merges outputs in run-index order, so
	// trace files are byte-identical at any Jobs setting. Use it with a
	// single experiment so the run numbering stays meaningful.
	Trace *trace.Collector
	// Cache, when non-nil, memoizes scenario runs across experiments:
	// overlapping grids (shared baselines, repeated ablation arms)
	// simulate each distinct (scenario, protocol, seed, options) run
	// once. Tables are byte-identical with the cache on or off.
	Cache *scenario.RunCache
}

func (c Config) device() *energy.DeviceProfile {
	if c.Device != nil {
		return c.Device
	}
	return energy.GalaxyS3()
}

// runs scales a repetition count down in Quick mode (minimum 2 so SEM is
// defined).
func (c Config) runs(full int) int {
	if !c.Quick {
		return full
	}
	n := full / 3
	if n < 2 {
		n = 2
	}
	return n
}

// scaleMB shrinks a transfer size (in MB) in Quick mode.
func (c Config) scaleMB(mb float64) float64 {
	if !c.Quick {
		return mb
	}
	s := mb / 8
	if s < 0.25 {
		s = 0.25
	}
	return s
}

// pool returns the worker pool for this configuration.
func (c Config) pool() *runner.Pool { return runner.New(c.Jobs) }

// repeatRuns evaluates mk(0..n-1) — one independent seeded run per index —
// across the configuration's worker pool and returns the results in index
// order. Every repeated-run loop in the harness goes through here, so
// parallel and sequential executions reduce over identical slices and
// every table regenerates bit-identically.
//
// Each index receives a base scenario.Opts carrying its run's trace
// recorder (nil when tracing is off) and the configuration's run cache;
// mk fills in the seed and any other per-run options. Batches are
// reserved before the fan-out, on the single orchestration goroutine, so
// run numbering is deterministic too.
func repeatRuns[T any](cfg Config, n int, mk func(i int, opt scenario.Opts) T) []T {
	batch := cfg.Trace.Batch(n)
	return runner.Map(cfg.pool(), n, func(i int) T {
		return mk(i, scenario.Opts{Recorder: batch.Recorder(i), Cache: cfg.Cache})
	})
}

// replicateGrid evaluates a protocol × seed grid over one scenario —
// protocol-major, seeds contiguous (results[pi*runs+s], seed BaseSeed+s).
func replicateGrid(cfg Config, sc scenario.Scenario, protos []scenario.Protocol, runs int) []scenario.Result {
	return repeatRuns(cfg, len(protos)*runs, func(j int, opt scenario.Opts) scenario.Result {
		opt.Seed = cfg.BaseSeed + int64(j%runs)
		return scenario.Run(sc, protos[j/runs], opt)
	})
}

// sweepRuns evaluates each sweep point's eMPTCP scenario over nSeeds
// seeded repetitions and returns the results point-major
// (results[p*nSeeds+s], seed BaseSeed+s), the layout the sweep tables
// read.
func sweepRuns(cfg Config, nSeeds int, points []scenario.Scenario) []scenario.Result {
	return repeatRuns(cfg, len(points)*nSeeds, func(j int, opt scenario.Opts) scenario.Result {
		opt.Seed = cfg.BaseSeed + int64(j%nSeeds)
		return scenario.Run(points[j/nSeeds], scenario.EMPTCP, opt)
	})
}

// Output is what an experiment produces.
type Output struct {
	Tables []*report.Table
	// Series holds named traces for the trace figures; Order lists their
	// display order.
	Series map[string]*stats.TimeSeries
	Order  []string
	// Notes carry prose observations printed after the tables.
	Notes []string
	// Metrics expose headline numbers for EXPERIMENTS.md and tests.
	Metrics map[string]float64
}

func newOutput() *Output {
	return &Output{Series: map[string]*stats.TimeSeries{}, Metrics: map[string]float64{}}
}

func (o *Output) addSeries(name string, ts *stats.TimeSeries) {
	if ts == nil {
		return
	}
	o.Series[name] = ts
	o.Order = append(o.Order, name)
}

// CSV renders the output's tables as CSV blocks (titles as comments),
// skipping traces and notes.
func (o *Output) CSV() string {
	var b strings.Builder
	for _, t := range o.Tables {
		if t.Title != "" {
			b.WriteString("# " + t.Title + "\n")
		}
		b.WriteString(t.CSV())
		b.WriteString("\n")
	}
	return b.String()
}

// String renders the whole output.
func (o *Output) String() string {
	var b strings.Builder
	for _, t := range o.Tables {
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	if len(o.Order) > 0 {
		b.WriteString(report.SeriesBlock("traces:", o.Order, o.Series, 72))
		b.WriteString("\n")
	}
	for _, n := range o.Notes {
		b.WriteString("note: " + n + "\n")
	}
	if len(o.Metrics) > 0 {
		keys := make([]string, 0, len(o.Metrics))
		for k := range o.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString("metrics:\n")
		for _, k := range keys {
			fmt.Fprintf(&b, "  %-44s %s\n", k, report.FormatFloat(o.Metrics[k]))
		}
	}
	return b.String()
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	// ID is the paper's label: "fig5", "table2", "sec46", ...
	ID string
	// Title describes what the experiment shows.
	Title string
	// Paper summarizes the result the paper reports, for side-by-side
	// comparison.
	Paper string
	// Run executes the experiment.
	Run func(cfg Config) *Output
}

// registry holds all experiments in paper order; byID indexes them for
// O(1) lookup.
var (
	registry []*Experiment
	byID     = map[string]*Experiment{}
)

func register(e *Experiment) {
	if _, dup := byID[e.ID]; dup {
		panic(fmt.Sprintf("exp: duplicate experiment id %q", e.ID))
	}
	byID[e.ID] = e
	registry = append(registry, e)
}

// All returns every experiment in paper order.
func All() []*Experiment {
	out := make([]*Experiment, len(registry))
	copy(out, registry)
	return out
}

// ByID returns the experiment with the given ID, or nil.
func ByID(id string) *Experiment { return byID[id] }

// IDs lists all experiment IDs in order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.ID
	}
	return ids
}
