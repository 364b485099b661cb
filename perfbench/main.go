// Command perfbench is the repository's benchmark: the paper suite and
// three wild campaigns (cold, warm and served), each measured end to end
// with tracing off, plus a traced run that splits their cost by layer.
// See README.md in this directory for the workloads and every metric.
//
// Usage, from the repository root (run.sh builds this program and the
// emptcpsim CLI into .bench_build/ first):
//
//	bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//	bash perfbench/run.sh --seed N      # every workload, timed and traced
//
// Every measured sample is a fresh child process, so process-wide caches
// start cold as they do for a user. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/runcache"

	_ "embed"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 2 && args[0] == "sample" {
		return runSample(args[1])
	}
	if len(args) == 1 && args[0] == "benchmark-json" {
		b, err := benchmarkJSON()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		stdout.Write(b)
		return 0
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "workload seed: the inputs are a function of it")
	seconds := fs.Int("seconds", runSeconds, "how long one run measures")
	traced := fs.Int("trace", -1, "0: timed run, 1: traced run (default: both, for --workload all only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *seconds < 1 || *traced < -1 || *traced > 1 {
		fs.Usage()
		return 2
	}
	names := []string{*wl}
	if *wl == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	} else if !known(*wl) {
		fmt.Fprintf(stderr, "unknown workload %q\n", *wl)
		return 2
	} else if *traced < 0 {
		fmt.Fprintln(stderr, "--trace 0 or 1 is required with a single workload")
		return 2
	}
	modes := []bool{*traced == 1}
	if *traced < 0 {
		modes = []bool{false, true}
	}

	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	b := &bench{
		root:    root,
		out:     filepath.Join(root, ".bench_build"),
		seconds: time.Duration(*seconds) * time.Second,
		stdout:  stdout,
	}
	b.cli = filepath.Join(b.out, "emptcpsim")
	if b.self, err = os.Executable(); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if b.host, err = checkBuild(root, b.cli); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	final := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, name := range names {
		for _, tr := range modes {
			r, err := b.runWorkload(name, *seed, tr)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench %s: %v\n", name, err)
				return 1
			}
			final.Correct = final.Correct && r.Correct
			final.Attempted += r.Attempted
			final.Failed += r.Failed
			for k, v := range r.Metrics {
				if len(names) > 1 {
					k = name + ":" + k
				}
				final.Metrics[k] = v
			}
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !final.Correct {
		return 1
	}
	return 0
}

func known(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench holds what every run shares.
type bench struct {
	root, out, cli, self string
	seconds              time.Duration
	host                 hostRecord
	stdout               io.Writer
}

func (b *bench) printf(format string, args ...any) { fmt.Fprintf(b.stdout, format, args...) }

//go:embed pins.json
var pinsJSON []byte

// pins holds output digests pinned per workload and seed: the suite
// seed for paper-suite, the workload seed for the campaigns.
func pins() (map[string]map[string]string, error) {
	var p map[string]map[string]string
	return p, json.Unmarshal(pinsJSON, &p)
}

// prepared is the untimed set-up one run needs before its samples.
type prepared struct {
	store, replay string // campaign-warm: filled campaign and replay stores
	want          string // digest every sample must reproduce ("" = none)
}

// prepare does a run's untimed set-up in this process: for
// campaign-warm, the cold pass that fills the store (and, for a traced
// run, the replay store); for campaign-served, a local -j 1 run of the
// served spec, whose bytes every served sample must reproduce.
func (b *bench) prepare(name string, seed int64, traced bool, dir string) (prepared, error) {
	var p prepared
	switch name {
	case "campaign-warm":
		p.store = filepath.Join(dir, "store")
		d, err := execute(wildSpec(seed, population, 0), p.store)
		if err != nil {
			return p, err
		}
		p.want = d
		if traced {
			p.replay = filepath.Join(dir, "replay")
			store, err := runcache.OpenStore(p.replay)
			if err != nil {
				return p, err
			}
			_, err = replayGrid(wildSpec(seed, population, 0), store, nil)
			if cerr := store.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return p, err
			}
		}
	case "campaign-served":
		d, err := execute(wildSpec(seed, population, servedShard), filepath.Join(dir, "reference"))
		if err != nil {
			return p, err
		}
		p.want = d
	}
	return p, nil
}

// execute runs spec locally at -j 1 into a store at dir and returns the
// digest of its aggregates.
func execute(spec campaign.Spec, dir string) (string, error) {
	store, err := runcache.OpenStore(dir)
	if err != nil {
		return "", err
	}
	defer store.Close()
	job, err := campaign.New(spec, campaign.Options{Disk: store, Jobs: 1})
	if err != nil {
		return "", err
	}
	if err := job.Execute(); err != nil {
		return "", err
	}
	out, ok := job.Result()
	if !ok {
		return "", errors.New("reference campaign produced no result")
	}
	if err := store.Close(); err != nil {
		return "", err
	}
	return digest(out), nil
}

// measured is one sample with its wall-clock set-up time as the parent
// saw it.
type measured struct {
	sample
	setup float64
}

// runWorkload performs one run: untimed set-up, then fresh-process
// samples until the run's time is up (with tracing, untraced and traced
// samples alternate), then the checks and the report.
func (b *bench) runWorkload(name string, seed int64, traced bool) (result, error) {
	dir := filepath.Join(b.out, "run", name)
	if err := os.RemoveAll(dir); err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	mode := "timed"
	if traced {
		mode = "traced"
	}
	b.printf("== %s seed=%d %s run\n", name, seed, mode)
	p, err := b.prepare(name, seed, traced, dir)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	spans := filepath.Join(b.out, "spans", name+".tsv")
	if err := os.MkdirAll(filepath.Dir(spans), 0o755); err != nil {
		return result{}, err
	}
	stat0 := readCPUTimes()
	start := time.Now()
	var plain, withSpans []measured
	for k := 0; len(plain) == 0 || time.Since(start) < b.seconds; k++ {
		m, err := b.spawn(task{Workload: name, Seed: seed, K: k, Dir: filepath.Join(dir, fmt.Sprintf("s%d", k)),
			Store: p.store, CLI: b.cli})
		if err != nil {
			return result{}, err
		}
		plain = append(plain, m)
		if traced {
			m, err := b.spawn(task{Workload: name, Seed: seed, K: k, Traced: true, Dir: filepath.Join(dir, fmt.Sprintf("t%d", k)),
				Store: p.store, Replay: p.replay, CLI: b.cli, Spans: spans})
			if err != nil {
				return result{}, err
			}
			withSpans = append(withSpans, m)
		}
	}
	b.host.StealPct = stealPct(stat0, readCPUTimes())

	r := result{Correct: true, Metrics: map[string]metricValue{}}
	pinned, err := pins()
	if err != nil {
		return r, fmt.Errorf("pins.json: %w", err)
	}
	all := append(append([]measured{}, plain...), withSpans...)
	for i := range all {
		m := &all[i]
		key := strconv.FormatInt(seed, 10)
		if name == "paper-suite" {
			key = strconv.FormatInt(seed+int64(i%len(plain)), 10)
		}
		want := p.want
		if name != "paper-suite" && want == "" {
			want = plain[0].Digest // every sample of a campaign run has one spec
		}
		if pin := pinned[name][key]; pin != "" && m.Digest != pin {
			m.fail("digest %s differs from the digest pinned for seed %s (%s)", m.Digest, key, pin)
		}
		if want != "" && m.Digest != want {
			m.fail("digest %s differs from the reference %s", m.Digest, want)
		}
		if name == "paper-suite" && i >= len(plain) && m.Digest != plain[i-len(plain)].Digest {
			m.fail("traced suite digest %s differs from the untraced one for the same seed", m.Digest)
		}
		if len(m.Errors) > 0 {
			m.Failed = max(m.Failed, m.Attempted, 1)
			r.Correct = false
			for _, e := range m.Errors {
				b.printf("FAIL sample %d: %s\n", i, e)
			}
		}
		r.Attempted += m.Attempted
		r.Failed += m.Failed
		b.printf("sample %d seed=%s setup_s=%.4f setup_wall_s=%.4f wall_s=%.4f cpu_s=%.4f rss_mb=%.2f\n",
			i, key, m.SetupCPU, m.setup, m.Wall, m.CPU, m.RSSMB)
		b.printf("digest %s seed=%s sha256=%s\n", name, key, m.Digest)
	}
	if r.Failed > 0 {
		r.Correct = false
	}

	e2e := endToEndValues(plain)
	for _, def := range append(append([]metricDef{}, endToEnd...), wallClock...) {
		xs := e2e[def.Name]
		gate := "not gated"
		if def.Bound != nil {
			gate = fmt.Sprintf("bound %g", *def.Bound)
		}
		b.printf("metric %-14s %12.6g %-7s median of %d (p25 %.6g, p75 %.6g; %s)\n",
			def.Name, median(xs), def.Unit, len(xs), quantile(xs, 0.25), quantile(xs, 0.75), gate)
	}
	if !traced {
		r.Metrics = endToEndMetrics(plain)
	}
	b.printf("failed_share %.6g (%d of %d operations)\n", ratio(float64(r.Failed), float64(r.Attempted)), r.Failed, r.Attempted)
	hb, _ := json.Marshal(b.host)
	b.printf("host %s\n", hb)
	if traced {
		b.layers(r.Metrics, plain, withSpans)
	}
	return r, nil
}

// endToEndValues derives every end-to-end metric of each sample.
func endToEndValues(ms []measured) map[string][]float64 {
	v := map[string][]float64{}
	for _, m := range ms {
		v["setup_s"] = append(v["setup_s"], m.SetupCPU)
		v["setup_wall_s"] = append(v["setup_wall_s"], m.setup)
		v["suite_s"] = append(v["suite_s"], m.Wall)
		v["runs_per_s"] = append(v["runs_per_s"], m.Runs/m.Wall)
		v["cpu_s"] = append(v["cpu_s"], m.CPU)
		v["peak_rss_mb"] = append(v["peak_rss_mb"], m.RSSMB)
		v["store_mb"] = append(v["store_mb"], m.StoreMB)
	}
	return v
}

// endToEndMetrics is a timed run's result: each gated end-to-end
// metric's median over the run's samples.
func endToEndMetrics(plain []measured) map[string]metricValue {
	e2e := endToEndValues(plain)
	out := map[string]metricValue{}
	for _, def := range endToEnd {
		out[def.Name] = metricValue{median(e2e[def.Name]), def.Unit}
	}
	return out
}

// layers sets the traced run's per-layer metrics: the median over the
// traced samples of each layer value, the ledger and the tracing
// overhead against the untraced samples, and the host's steal.
func (b *bench) layers(out map[string]metricValue, plain, withSpans []measured) {
	vals := map[string][]float64{}
	noted := map[string]bool{}
	for _, m := range withSpans {
		for k, v := range m.Layer {
			vals[k] = append(vals[k], v)
		}
		for _, n := range m.Notes {
			if !noted[n] {
				noted[n] = true
				b.printf("note %s\n", n)
			}
		}
	}
	var untracedCPU, tracedCPU []float64
	for _, m := range plain {
		untracedCPU = append(untracedCPU, m.CPU)
	}
	for _, m := range withSpans {
		tracedCPU = append(tracedCPU, m.CPU)
	}
	cpu := median(untracedCPU)
	set := func(name string, v float64) {
		vals[name] = []float64{v}
	}
	set("ledger.unaccounted_pct", 100*(1-median(vals[coveredKey])/cpu))
	set("trace.overhead_pct", 100*(median(tracedCPU)-cpu)/cpu)
	set("host.steal_pct", b.host.StealPct)
	defs := perLayer()
	sort.Slice(defs, func(i, j int) bool { return defs[i].Name < defs[j].Name })
	for _, d := range defs {
		v := median(vals[d.Name])
		out[d.Name] = metricValue{v, d.Unit}
		b.printf("layer %-36s %14.6g %s\n", d.Name, v, d.Unit)
	}
}

// spawn runs one sample in a fresh process of this binary and returns
// its report, with set-up time measured from just before the start.
func (b *bench) spawn(t task) (measured, error) {
	if err := os.MkdirAll(t.Dir, 0o755); err != nil {
		return measured{}, err
	}
	defer os.RemoveAll(t.Dir)
	arg, err := json.Marshal(t)
	if err != nil {
		return measured{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, b.self, "sample", string(arg))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return measured{}, fmt.Errorf("sample %d of %s: %w", t.K, t.Workload, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var m measured
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &m.sample); err != nil {
		return m, fmt.Errorf("sample %d of %s: %w", t.K, t.Workload, err)
	}
	m.setup = float64(m.SetupEnd-start.UnixNano()) / 1e9
	return m, nil
}
