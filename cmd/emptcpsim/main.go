// Command emptcpsim regenerates the paper's tables and figures, and
// runs population-scale campaigns locally or as a service.
//
// Usage:
//
//	emptcpsim [-device s3|n5] [-seed N] [-quick] [-csv] [-j N] [-v]
//	          [-trace FILE] [-metrics FILE]
//	          [-cpuprofile FILE] [-memprofile FILE] [experiment ...]
//	emptcpsim campaign [-cachedir DIR] [-j N] [-o FILE] [-v] (SPEC.json | - | wild)
//	emptcpsim serve [-addr HOST:PORT] [-cachedir DIR] [-j N] [-token T] [-lease-ttl D]
//	emptcpsim worker -coordinator URL [-cachedir DIR] [-j N] [-token T]
//
// With no arguments it lists the available experiments. Pass experiment
// ids ("fig5", "table2", ...) or "all" to run everything in paper order.
// The campaign and serve subcommands are documented in serve.go and in
// the repository README.
// Experiments are independent seeded simulations, so -j runs them (and
// the repeated runs inside each) across N workers; -j 1 is fully
// sequential. Output is byte-identical at any -j.
//
// -trace writes a structured JSONL event timeline (one recorder per
// seeded run, merged in run order) and -metrics writes per-run aggregate
// counters and time series; both require exactly one experiment id so the
// run numbering is meaningful, and both are byte-identical at any -j.
//
// Runs are memoized in a process-wide cache shared by all requested
// experiments, so overlapping grids (shared baselines, repeated ablation
// arms) simulate each distinct run once. -v prints the cache statistics
// to stderr after the run. -cpuprofile and -memprofile write pprof
// profiles of the whole invocation for `go tool pprof`.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/energy"
	"repro/internal/exp"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// usage prints the one-screen invocation summary. Every invalid
// invocation routes through here (on stderr) and exits 2 with nothing
// on stdout, so scripts can trust a zero exit + stdout pairing.
func usage(w io.Writer) {
	fmt.Fprintln(w, `usage:
  emptcpsim [flags] [experiment ...|all]   regenerate tables/figures (no args: list)
  emptcpsim campaign [flags] SPEC          run one campaign (SPEC is a file, "-", or "wild")
  emptcpsim serve [flags]                  campaign HTTP service / distributed coordinator
  emptcpsim worker -coordinator URL        pull and execute campaign shards from a coordinator
run "emptcpsim <subcommand> -h" for flags.`)
}

// run executes the CLI against the given argument list and streams.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "serve":
			return runServe(args[1:], stdout, stderr)
		case "campaign":
			return runCampaign(args[1:], stdout, stderr)
		case "worker":
			return runWorker(args[1:], stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("emptcpsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	device := fs.String("device", "s3", "device profile: s3 (Galaxy S3) or n5 (Nexus 5)")
	seed := fs.Int64("seed", 0, "base seed for all runs")
	quickMode := fs.Bool("quick", false, "shrink transfer sizes and repetition counts (~10x faster)")
	csvMode := fs.Bool("csv", false, "emit result tables as CSV instead of aligned text")
	jobs := fs.Int("j", runtime.NumCPU(), "worker count for parallel runs (1 = sequential)")
	traceFile := fs.String("trace", "", "write a JSONL trace-event timeline to FILE (single experiment only)")
	metricsFile := fs.String("metrics", "", "write per-run JSON metrics to FILE (single experiment only)")
	verbose := fs.Bool("v", false, "print run-cache statistics to stderr")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to FILE")
	memProfile := fs.String("memprofile", "", "write an allocation profile to FILE on exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0 // asked-for help is not an error
		}
		return 2
	}
	if *jobs < 1 {
		fmt.Fprintf(stderr, "-j %d: worker count must be ≥ 1\n", *jobs)
		usage(stderr)
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // profile live objects, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, err)
			}
		}()
	}

	cfg := exp.Config{BaseSeed: *seed, Quick: *quickMode, Jobs: *jobs, Cache: scenario.NewRunCache()}
	switch *device {
	case "s3":
		cfg.Device = energy.GalaxyS3()
	case "n5":
		cfg.Device = energy.Nexus5()
	default:
		fmt.Fprintf(stderr, "unknown device %q (want s3 or n5)\n", *device)
		usage(stderr)
		return 2
	}

	rest := fs.Args()
	if len(rest) == 0 {
		if *traceFile != "" || *metricsFile != "" {
			// Silently listing experiments would drop the requested
			// trace on the floor; that's an invalid invocation, not a
			// listing.
			fmt.Fprintln(stderr, "-trace/-metrics require exactly one experiment id")
			usage(stderr)
			return 2
		}
		fmt.Fprintln(stdout, "available experiments:")
		for _, e := range exp.All() {
			fmt.Fprintf(stdout, "  %-14s %s\n", e.ID, e.Title)
		}
		fmt.Fprintln(stdout, "\nrun with: emptcpsim [flags] <id>... | all")
		return 0
	}

	var ids []string
	if len(rest) == 1 && rest[0] == "all" {
		ids = exp.IDs()
	} else {
		ids = rest
	}

	// Validate every id before running anything, so a typo late in the
	// list fails fast instead of after minutes of simulation.
	es := make([]*exp.Experiment, len(ids))
	for i, id := range ids {
		if es[i] = exp.ByID(id); es[i] == nil {
			fmt.Fprintf(stderr, "unknown experiment %q; run without arguments for the list\n", id)
			usage(stderr)
			return 2
		}
	}

	if *traceFile != "" || *metricsFile != "" {
		// One experiment keeps run numbering deterministic: batches are
		// reserved by that experiment's orchestration alone, not racing
		// with other experiments on the pool.
		if len(es) != 1 {
			// "all" lands here too: it expands to every experiment, which
			// would make the run numbering meaningless.
			fmt.Fprintln(stderr, "-trace/-metrics require exactly one experiment id")
			usage(stderr)
			return 2
		}
		cfg.Trace = &trace.Collector{
			WantEvents:  *traceFile != "",
			WantMetrics: *metricsFile != "",
		}
	}

	// Each experiment renders its section into a buffer on the worker
	// pool; sections are written out in request order, so the transcript
	// is byte-identical to a sequential run (modulo wall times).
	sections := runner.Map(runner.New(*jobs), len(es), func(i int) string {
		e := es[i]
		var b strings.Builder
		fmt.Fprintf(&b, "=== %s — %s\n", e.ID, e.Title)
		fmt.Fprintf(&b, "paper: %s\n\n", e.Paper)
		start := time.Now()
		out := e.Run(cfg)
		if *csvMode {
			b.WriteString(out.CSV())
		} else {
			b.WriteString(out.String())
		}
		fmt.Fprintf(&b, "(%s wall time)\n\n", time.Since(start).Round(time.Millisecond))
		return b.String()
	})
	for _, s := range sections {
		io.WriteString(stdout, s)
	}
	if cfg.Trace != nil {
		if err := exportTrace(cfg.Trace, *traceFile, *metricsFile); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if *verbose {
		// Stats go to stderr so stdout stays byte-identical for goldens.
		hits, misses, dups := cfg.Cache.FlightStats()
		fmt.Fprintf(stderr, "runcache: %d hits, %d misses, %d duplicate simulations\n", hits, misses, dups)
	}
	return 0
}

// exportTrace writes the collected per-run timelines and metrics.
func exportTrace(c *trace.Collector, traceFile, metricsFile string) error {
	write := func(path string, render func(io.Writer) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := render(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if traceFile != "" {
		if err := write(traceFile, c.WriteJSONL); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	if metricsFile != "" {
		if err := write(metricsFile, c.WriteMetrics); err != nil {
			return fmt.Errorf("writing metrics: %w", err)
		}
	}
	return nil
}
