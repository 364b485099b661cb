package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/campaign"
	"repro/internal/eib"
	"repro/internal/energy"
	"repro/internal/exp"
	"repro/internal/lockstep"
	"repro/internal/ptcp"
	"repro/internal/runcache"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/simrng"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// The grid vocabulary of exp.WildSpec, in the spec's own order.
var (
	qualities = map[string]scenario.Quality{"bad": scenario.Bad, "good": scenario.Good}
	locations = map[string]scenario.ServerLoc{"wdc": scenario.WDC, "ams": scenario.AMS, "sng": scenario.SNG}
	protocols = map[string]scenario.Protocol{"mptcp": scenario.MPTCP, "emptcp": scenario.EMPTCP, "tcp-wifi": scenario.TCPWiFi}
)

// cellStreams mirrors one campaign aggregation cell.
type cellStreams struct {
	runs                uint64
	energy, dltime, jpb stats.Stream
}

// replayCounts is what one grid replay did.
type replayCounts struct {
	runs, lanes, adds int
	cells             []cellStreams
}

// replayGrid walks the spec's grid in its fixed order (replicate, wifi,
// lte, size, protocol, location, seed), calling each layer the way the
// campaign executor does: scenario.Wild, scenario.CacheKey and
// Store.Get per run; for the runs the store lacks, one lockstep.Run over
// the cell's seeds when the cell is lockstep-eligible, else
// scenario.Run per run, then Store.Put; and the stats.Stream fold. Each
// call is a top-level span when tr is non-nil.
func replayGrid(spec campaign.Spec, store *runcache.Store, tr *tracer) (replayCounts, error) {
	if err := spec.Validate(); err != nil {
		return replayCounts{}, err
	}
	dev := energy.GalaxyS3()
	n := spec.Seeds.Count
	rc := replayCounts{cells: make([]cellStreams, len(spec.WiFi)*len(spec.LTE)*len(spec.SizesMB)*len(spec.Protocols))}
	keys := make([]runcache.Key, n)
	res := make([]scenario.Result, n)
	have := make([]bool, n)
	var run int64
	for rep := 0; rep < spec.Replicate; rep++ {
		cell := 0
		for _, wq := range spec.WiFi {
			for _, lq := range spec.LTE {
				for _, mb := range spec.SizesMB {
					size := units.ByteSize(mb * float64(units.MB))
					for _, pn := range spec.Protocols {
						proto := protocols[pn]
						for _, ln := range spec.Locations {
							var sc scenario.Scenario
							var misses []int64
							for k := 0; k < n; k++ {
								seed := spec.Seeds.Base + int64(k)
								id := tr.begin("scenario.Wild", 0, run+int64(k))
								sc = scenario.Wild(dev, qualities[wq], qualities[lq], locations[ln], workload.FileDownload{Size: size})
								tr.end(id)
								id = tr.begin("scenario.CacheKey", 0, run+int64(k))
								keys[k], _ = scenario.CacheKey(sc, proto, scenario.Opts{Seed: seed})
								tr.end(id)
								id = tr.begin("runcache.Get", 0, run+int64(k))
								v, hit, err := store.Get(keys[k])
								tr.end(id)
								if err != nil {
									return rc, err
								}
								have[k] = hit
								if hit {
									if res[k], err = decodeResult(v); err != nil {
										return rc, err
									}
								} else {
									misses = append(misses, seed)
								}
							}
							if len(misses) > 0 {
								if err := simulate(sc, proto, spec.Seeds.Base, misses, res, run, tr, &rc); err != nil {
									return rc, err
								}
								for k := 0; k < n; k++ {
									if have[k] {
										continue
									}
									id := tr.begin("runcache.Put", 0, run+int64(k))
									err := store.Put(keys[k], encodeResult(res[k]))
									tr.end(id)
									if err != nil {
										return rc, err
									}
								}
							}
							// One span per block of folds: an Add takes tens of
							// ns, about what a span's own clock reads cost.
							id := tr.begin("stats.Stream.Add", 0, run)
							for k := 0; k < n; k++ {
								rc.adds += fold(&rc.cells[cell], &res[k])
							}
							tr.end(id)
							run += int64(n)
						}
						cell++
					}
				}
			}
		}
	}
	rc.runs = int(run)
	return rc, nil
}

// simulate fills res for the missed seeds: one lane batch when the cell
// is lockstep-eligible, scalar runs otherwise.
func simulate(sc scenario.Scenario, proto scenario.Protocol, base int64, seeds []int64, res []scenario.Result, run int64, tr *tracer, rc *replayCounts) error {
	if lockstep.Eligible(sc, proto, scenario.Opts{}) {
		id := tr.begin("lockstep.Run", 0, run+seeds[0]-base)
		out := lockstep.Run(sc, proto, seeds, scenario.Opts{})
		tr.end(id)
		if len(out) != len(seeds) {
			return fmt.Errorf("lockstep.Run returned %d results for %d seeds", len(out), len(seeds))
		}
		for i, seed := range seeds {
			res[seed-base] = out[i]
		}
		rc.lanes += len(seeds)
		return nil
	}
	for _, seed := range seeds {
		id := tr.begin("scenario.Run", 0, run+seed-base)
		res[seed-base] = scenario.Run(sc, proto, scenario.Opts{Seed: seed})
		tr.end(id)
	}
	return nil
}

// fold adds one result to its cell the way the campaign's aggregation
// does, returning how many stats.Stream.Add calls it made.
func fold(c *cellStreams, r *scenario.Result) int {
	c.runs++
	c.energy.Add(float64(r.Energy))
	adds := 1
	if r.Completed {
		c.dltime.Add(r.CompletionTime)
		adds++
	}
	if !math.IsNaN(r.JPerByte) && !math.IsInf(r.JPerByte, 0) {
		c.jpb.Add(r.JPerByte)
		adds++
	}
	return adds
}

// recordSize is the campaign store's record value size, so the replay
// store moves as many bytes per Get and Put as the campaign's does.
const recordSize = 115

// encodeResult stores the fields the fold reads, padded to recordSize.
func encodeResult(r scenario.Result) []byte {
	b := make([]byte, 0, recordSize)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(float64(r.Energy)))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.CompletionTime))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.JPerByte))
	var flags byte
	if r.Completed {
		flags |= 1
	}
	if r.LTEUsed {
		flags |= 2
	}
	b = append(b, flags)
	return b[:recordSize]
}

func decodeResult(b []byte) (scenario.Result, error) {
	var r scenario.Result
	if len(b) != recordSize {
		return r, fmt.Errorf("replay record is %d bytes, want %d", len(b), recordSize)
	}
	r.Energy = units.Energy(math.Float64frombits(binary.LittleEndian.Uint64(b)))
	r.CompletionTime = math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
	r.JPerByte = math.Float64frombits(binary.LittleEndian.Uint64(b[16:]))
	r.Completed = b[24]&1 != 0
	r.LTEUsed = b[24]&2 != 0
	return r, nil
}

// replayLayers replays the grid into the store at dir under tr, sets
// the replay's per-layer metrics, checks the replay against the
// campaign's published aggregates, and returns the CPU seconds the
// replay's layer spans cover.
func replayLayers(spec campaign.Spec, dir string, agg []byte, tr *tracer, l map[string]float64) (float64, error) {
	store, err := runcache.OpenStore(dir)
	if err != nil {
		return 0, err
	}
	n0 := len(tr.spans)
	cpu0, w0 := selfCPU(), time.Now()
	rc, err := replayGrid(spec, store, tr)
	wall, cpu := time.Since(w0).Seconds(), selfCPU()-cpu0
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, fmt.Errorf("replay: %w", err)
	}
	spans := tr.spans[n0:]
	var top int64
	for _, sp := range spans {
		top += sp.dur()
	}
	st := byName(spans)
	per := func(name string, n int, unit float64) float64 {
		if s := st[name]; s != nil && n > 0 {
			return float64(s.self) / float64(n) / unit
		}
		return 0
	}
	l["scenario.assemble_us"] = per("scenario.Wild", rc.runs, 1e3)
	l["scenario.key_us"] = per("scenario.CacheKey", rc.runs, 1e3)
	if s := st["runcache.Get"]; s != nil {
		l["runcache.get_us"] = per("runcache.Get", s.calls, 1e3)
	}
	if s := st["runcache.Put"]; s != nil {
		l["runcache.put_us"] = per("runcache.Put", s.calls, 1e3)
	}
	if rc.lanes > 0 {
		l["lockstep.lane_us"] = per("lockstep.Run", rc.lanes, 1e3)
	}
	l["stats.fold_ns"] = per("stats.Stream.Add", rc.adds, 1)
	return cpu * float64(top) / 1e9 / wall, checkReplay(rc, agg)
}

// checkReplay compares the replay's cells with the campaign's published
// aggregates: run counts exactly, mean energies to 1e-9 relative (the
// campaign merges shards, so its float reduction order differs).
func checkReplay(rc replayCounts, agg []byte) error {
	var ag campaign.Aggregates
	if err := json.Unmarshal(agg, &ag); err != nil {
		return fmt.Errorf("replay check: %w", err)
	}
	if len(ag.Cells) != len(rc.cells) || ag.TotalRuns != uint64(rc.runs) {
		return fmt.Errorf("replay check: %d cells and %d runs, campaign has %d and %d", len(rc.cells), rc.runs, len(ag.Cells), ag.TotalRuns)
	}
	for i, c := range ag.Cells {
		got := rc.cells[i].energy.Mean()
		if c.Runs != rc.cells[i].runs || math.Abs(got-c.EnergyJ.Mean) > 1e-9*math.Abs(c.EnergyJ.Mean) {
			return fmt.Errorf("replay check: cell %d has %d runs at %v J, campaign %d at %v J", i, rc.cells[i].runs, got, c.Runs, c.EnergyJ.Mean)
		}
	}
	return nil
}

// suiteCounts reruns every experiment with a metrics trace collector
// and sets the per-run event counts. Tracing sends every run down the
// scalar path, so these count the suite's simulated work, not its time.
// An experiment whose traced rerun panics is left out of the counts and
// named in skipped; the suite's own output does not depend on it.
func suiteCounts(seed int64, l map[string]float64) (skipped []string, err error) {
	totals := map[string]float64{}
	runs := 0
	for _, e := range exp.All() {
		c := &trace.Collector{WantMetrics: true}
		if perr := tracedRun(e, seed, c); perr != nil {
			skipped = append(skipped, perr.Error())
			continue
		}
		runs += c.Runs()
		var buf bytes.Buffer
		if err := c.WriteMetrics(&buf); err != nil {
			return skipped, err
		}
		sc := bufio.NewScanner(&buf)
		sc.Buffer(nil, 64<<20)
		for sc.Scan() {
			var line struct {
				Counters map[string]float64 `json:"counters"`
			}
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				return skipped, fmt.Errorf("%s metrics: %w", e.ID, err)
			}
			for k, v := range line.Counters {
				totals[k] += v
			}
		}
		if err := sc.Err(); err != nil {
			return skipped, err
		}
	}
	for name, kind := range countMetrics {
		l[name] = ratio(totals[kind.String()], float64(runs))
	}
	return skipped, nil
}

// tracedRun runs one experiment under collector c, turning a panic into
// an error.
func tracedRun(e *exp.Experiment, seed int64, c *trace.Collector) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s with a metrics trace panics: %v", e.ID, p)
		}
	}()
	e.Run(exp.Config{BaseSeed: seed, Jobs: 1, Trace: c})
	return nil
}

// countMetrics maps the per-run count metrics to trace event kinds.
var countMetrics = map[string]trace.Kind{
	"sim.fires_per_run":                trace.KindFire,
	"tcp.rounds_per_run":               trace.KindCwnd,
	"mptcp.picks_per_run":              trace.KindSchedPick,
	"energy.radio_transitions_per_run": trace.KindRadio,
	"core.path_sets_per_run":           trace.KindPathSet,
}

// probes times single layers on the workload's own inputs: simrng
// seeding, EIB generation, the packet kernel over the xval grid, and
// sampled scalar runs of the workload's wild grid. With suite set, the
// per-run event counts already came from suiteCounts.
func probes(l map[string]float64, seed int64, suite bool) {
	spec := wildSpec(seed, population, 0)

	// Seeds just past the workload's range are new to this process; the
	// second pass over them hits the seed-state cache.
	seeds := make([]int64, 256)
	for i := range seeds {
		seeds[i] = spec.Seeds.Base + population + int64(i)
	}
	newAll := func() float64 {
		runtime.GC() // each New allocates ~5 kB; keep collections out of the timing
		t0 := time.Now()
		for _, s := range seeds {
			simrng.New(s)
		}
		return float64(time.Since(t0)) / float64(len(seeds)) / 1e3
	}
	l["simrng.seed_miss_us"] = newAll()
	l["simrng.seed_hit_us"] = median([]float64{newAll(), newAll(), newAll()})

	dev := energy.GalaxyS3()
	up := eib.DefaultConfig()
	up.Uplink = true
	var gen []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		eib.Generate(dev, eib.DefaultConfig())
		eib.Generate(dev, up)
		gen = append(gen, ms(time.Since(t0)))
	}
	l["eib.generate_ms"] = median(gen)

	var pktNs float64
	var packets int
	for _, c := range xvalCells() {
		eng := sim.New()
		eng.Horizon = 900
		size := units.ByteSize(c.sizeMB * float64(units.MB))
		lk := ptcp.Link{Rate: units.MbpsRate(c.rateMbps), OneWayDelay: c.rttMs / 2000, QueuePackets: c.queue}
		t0 := time.Now()
		if c.subflows == 1 {
			packets += ptcp.Run(eng, ptcp.DefaultConfig(), lk, size).Packets
		} else {
			l2 := lk
			l2.OneWayDelay *= 2.5
			packets += ptcp.RunMPTCP(eng, ptcp.DefaultMPConfig(), []ptcp.Link{lk, l2}, size).Packets
		}
		pktNs += float64(time.Since(t0))
	}
	l["ptcp.packet_ns"] = ratio(pktNs, float64(packets))

	var small, large []float64
	var runNs, simsec float64
	counts := map[trace.Kind]float64{}
	nRuns := 0
	for _, mb := range spec.SizesMB {
		size := units.ByteSize(mb * float64(units.MB))
		for _, wq := range spec.WiFi {
			for _, lq := range spec.LTE {
				for _, pn := range spec.Protocols {
					for _, ln := range spec.Locations {
						sc := scenario.Wild(dev, qualities[wq], qualities[lq], locations[ln], workload.FileDownload{Size: size})
						for k := int64(0); k < 2; k++ {
							opt := scenario.Opts{Seed: spec.Seeds.Base + k}
							t0 := time.Now()
							r := scenario.Run(sc, protocols[pn], opt)
							d := float64(time.Since(t0))
							if mb < 1 {
								small = append(small, d/1e3)
							} else {
								large = append(large, d/1e3)
							}
							m := trace.NewMetrics(0)
							opt.Recorder = m
							scenario.Run(sc, protocols[pn], opt)
							runNs += d
							simsec += r.Elapsed
							for _, kind := range countMetrics {
								counts[kind] += float64(m.Count(kind))
							}
							nRuns++
						}
					}
				}
			}
		}
	}
	l["scenario.run_small_us"] = median(small)
	l["scenario.run_large_us"] = median(large)
	l["sim.fire_ns"] = ratio(runNs, counts[trace.KindFire])
	l["sim.simsec_per_run"] = simsec / float64(nRuns)
	if !suite {
		for name, kind := range countMetrics {
			l[name] = counts[kind] / float64(nRuns)
		}
	}
}

// xvalCell is one point of the xval experiment's full grid.
type xvalCell struct {
	rateMbps, rttMs, sizeMB float64
	queue, subflows         int
}

// xvalCells rebuilds the xval experiment's full (non-quick) grid.
func xvalCells() []xvalCell {
	var cells []xvalCell
	for _, rate := range []float64{4, 10, 40} {
		for _, rtt := range []float64{20, 100} {
			for _, size := range []float64{1, 8} {
				for _, queue := range []int{32, 128} {
					for _, subs := range []int{1, 2} {
						cells = append(cells, xvalCell{rate, rtt, size, queue, subs})
					}
				}
			}
		}
	}
	return cells
}
