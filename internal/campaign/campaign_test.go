package campaign

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/energy"
	"repro/internal/runcache"
	"repro/internal/scenario"
	"repro/internal/units"
	"repro/internal/workload"
)

// smallSpec is the unit-test workhorse: a 2-protocol, 2-cell grid with
// tiny downloads so a full campaign executes in well under a second.
func smallSpec() Spec {
	return Spec{
		Name:      "unit",
		WiFi:      []string{"bad"},
		LTE:       []string{"good"},
		Locations: []string{"wdc", "sng"},
		SizesMB:   []float64{0.25},
		Protocols: []string{"mptcp", "emptcp"},
		Seeds:     SeedRange{Base: 100, Count: 5},
		ShardSize: 4,
	}
}

func TestSpecValidateDefaultsAndErrors(t *testing.T) {
	s := Spec{Seeds: SeedRange{Count: 1}}
	if err := s.Validate(); err != nil {
		t.Fatalf("minimal spec: %v", err)
	}
	if s.Device != "s3" || len(s.WiFi) != 2 || len(s.LTE) != 2 ||
		len(s.Locations) != 3 || len(s.SizesMB) != 1 ||
		len(s.Protocols) != 3 || s.Replicate != 1 || s.ShardSize != 1024 {
		t.Fatalf("defaults not filled: %+v", s)
	}
	// 1 rep × 2 wifi × 2 lte × 1 size × 3 proto × 3 loc × 1 seed
	if got := s.TotalRuns(); got != 36 {
		t.Fatalf("TotalRuns = %d, want 36", got)
	}

	bad := []Spec{
		{Seeds: SeedRange{Count: 0}},
		{Device: "iphone", Seeds: SeedRange{Count: 1}},
		{WiFi: []string{"great"}, Seeds: SeedRange{Count: 1}},
		{Locations: []string{"nyc"}, Seeds: SeedRange{Count: 1}},
		{Protocols: []string{"quic"}, Seeds: SeedRange{Count: 1}},
		{SizesMB: []float64{-1}, Seeds: SeedRange{Count: 1}},
		{Replicate: -3, Seeds: SeedRange{Count: 1}},
		{ShardSize: -1, Seeds: SeedRange{Count: 1}},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("bad spec %d validated: %+v", i, b)
		}
	}
}

func TestSpecDigestIdentity(t *testing.T) {
	// Two spellings of the same campaign — explicit defaults vs blanks —
	// must share a digest; a changed seed must not.
	a := Spec{Seeds: SeedRange{Count: 2}}
	b := Spec{
		Device: "s3", WiFi: []string{"bad", "good"}, LTE: []string{"bad", "good"},
		Locations: []string{"wdc", "ams", "sng"}, SizesMB: []float64{16},
		Protocols: []string{"mptcp", "emptcp", "tcp-wifi"},
		Seeds:     SeedRange{Count: 2}, Replicate: 1, ShardSize: 1024,
	}
	da, err := a.Digest()
	if err != nil {
		t.Fatal(err)
	}
	db, err := b.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if da != db {
		t.Error("normalised-equal specs digest differently")
	}
	c := b
	c.Seeds.Base = 7
	if dc, _ := c.Digest(); dc == db {
		t.Error("different seed base, same digest")
	}
	// Digest must not mutate its receiver's normalisation state.
	blank := Spec{Seeds: SeedRange{Count: 2}}
	if _, err := blank.Digest(); err != nil {
		t.Fatal(err)
	}
	if blank.Device != "" {
		t.Error("Digest normalised its receiver in place")
	}
}

func TestGridDecomposition(t *testing.T) {
	g, err := compile(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if g.total != uint64(2*2*5) {
		t.Fatalf("total = %d, want 20", g.total)
	}
	if g.cells() != 2 { // 1 wifi × 1 lte × 1 size × 2 protos
		t.Fatalf("cells = %d, want 2", g.cells())
	}
	seenCell := make(map[int]int)
	seenSeed := make(map[int64]int)
	for i := uint64(0); i < g.total; i++ {
		sc, proto, seed, cell := g.runAt(i)
		if cell < 0 || cell >= g.cells() {
			t.Fatalf("run %d: cell %d out of range", i, cell)
		}
		if fast := g.cellAt(i); fast != cell {
			t.Fatalf("run %d: cellAt %d != runAt cell %d", i, fast, cell)
		}
		seenCell[cell]++
		seenSeed[seed]++
		if sc.Work == nil || sc.Device == nil {
			t.Fatalf("run %d: incomplete scenario", i)
		}
		wantProto := scenario.MPTCP
		if cell == 1 {
			wantProto = scenario.EMPTCP
		}
		if proto != wantProto {
			t.Fatalf("run %d: proto %v in cell %d", i, proto, cell)
		}
	}
	for cell, n := range seenCell {
		if n != 10 { // 2 locations × 5 seeds per cell
			t.Errorf("cell %d saw %d runs, want 10", cell, n)
		}
	}
	for seed, n := range seenSeed {
		if n != 4 { // each seed paired across 2 protos × 2 locations
			t.Errorf("seed %d used %d times, want 4", seed, n)
		}
	}
	// Replication re-enumerates the identical runs: the cache-hit
	// guarantee is exactly "replica indices map to equal cache keys".
	rep := smallSpec()
	rep.Replicate = 3
	gr, err := compile(rep)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < g.total; i++ {
		sc0, p0, s0, c0 := gr.runAt(i)
		sc1, p1, s1, c1 := gr.runAt(i + g.total)
		if p0 != p1 || s0 != s1 || c0 != c1 {
			t.Fatalf("replica of run %d decodes differently", i)
		}
		k0, ok0 := scenario.CacheKey(sc0, p0, scenario.Opts{Seed: s0})
		k1, ok1 := scenario.CacheKey(sc1, p1, scenario.Opts{Seed: s1})
		if !ok0 || !ok1 || k0 != k1 {
			t.Fatalf("replica of run %d has a different cache key", i)
		}
	}
}

// TestGridKeysMatchScalarKeys checks the compiled table against the
// scalar path: for every run index, grid.keyAt, the replica key memo
// and runAt's compiled scenario all key like a scenario.Wild built from
// the index's own mixed-radix digits (seed innermost, then location,
// protocol, size, LTE, WiFi, replica). Every dimension has at least two
// values and the location and size counts differ, so a transposed
// table index reads another scenario.
func TestGridKeysMatchScalarKeys(t *testing.T) {
	dev := energy.GalaxyS3()
	for _, seeds := range []int{1, 4} {
		spec := Spec{
			WiFi:      []string{"bad", "good"},
			LTE:       []string{"good", "bad"},
			Locations: []string{"wdc", "ams", "sng"},
			SizesMB:   []float64{0.25, 1},
			Protocols: []string{"mptcp", "emptcp"},
			Seeds:     SeedRange{Base: 40, Count: seeds},
			Replicate: 3,
		}
		g, err := compile(spec)
		if err != nil {
			t.Fatal(err)
		}
		e := newExecutor(g, nil)
		e.memoizeKeys(2)
		radix := []int{seeds, len(spec.Locations), len(spec.Protocols), len(spec.SizesMB), len(spec.LTE), len(spec.WiFi)}
		for i := uint64(0); i < g.total; i++ {
			var d [6]int
			r := i
			for k, n := range radix {
				d[k] = int(r % uint64(n))
				r /= uint64(n)
			}
			seed := spec.Seeds.Base + int64(d[0])
			loc, _ := locationOf(spec.Locations[d[1]])
			proto, _ := protocolOf(spec.Protocols[d[2]])
			size := units.ByteSize(spec.SizesMB[d[3]] * float64(units.MB))
			lq, _ := qualityOf(spec.LTE[d[4]])
			wq, _ := qualityOf(spec.WiFi[d[5]])
			sc := scenario.Wild(dev, wq, lq, loc, workload.FileDownload{Size: size})
			want, ok := scenario.CacheKey(sc, proto, scenario.Opts{Seed: seed})
			if !ok {
				t.Fatalf("seeds=%d run %d: Wild scenario has no key", seeds, i)
			}
			if got, ok := g.keyAt(i); !ok || got != want {
				t.Fatalf("seeds=%d run %d: grid.keyAt differs from the scalar key of %q", seeds, i, sc.Name)
			}
			if got, ok := e.keyAt(i); !ok || got != want {
				t.Fatalf("seeds=%d run %d: memoized key differs from the scalar key of %q", seeds, i, sc.Name)
			}
			rsc, rproto, rseed, _ := g.runAt(i)
			if rproto != proto || rseed != seed {
				t.Fatalf("seeds=%d run %d: runAt decodes (%v, %d), want (%v, %d)", seeds, i, rproto, rseed, proto, seed)
			}
			if got, ok := scenario.CacheKey(rsc, rproto, scenario.Opts{Seed: rseed}); !ok || got != want {
				t.Fatalf("seeds=%d run %d: runAt's scenario %q keys differently from %q", seeds, i, rsc.Name, sc.Name)
			}
		}
	}
}

func TestCodecRoundtrip(t *testing.T) {
	r := scenario.Result{
		Protocol:       scenario.EMPTCP,
		Completed:      true,
		CompletionTime: 12.375,
		Elapsed:        12.375,
		Energy:         units.Energy(34.5625),
		ByIface:        [3]units.Energy{1.25, 2.5, 0},
		BaseEnergy:     units.Energy(30.8125),
		Downloaded:     256 * units.KB,
		Uploaded:       9 * units.KB,
		JPerByte:       1.234e-6,
		BatteryPct:     0.0625,
		Switches:       3,
		LTEUsed:        true,
	}
	got, err := decodeResult(encodeResult(r))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("roundtrip mismatch:\nwant %+v\ngot  %+v", r, got)
	}

	// NaN fields (incomplete run) must survive bit-exactly.
	r.Completed = false
	r.CompletionTime = math.NaN()
	r.JPerByte = math.Inf(1)
	got, err = decodeResult(encodeResult(r))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(got.CompletionTime) || !math.IsInf(got.JPerByte, 1) {
		t.Fatalf("NaN/Inf not preserved: %+v", got)
	}

	// Truncated and version-skewed records are errors, not garbage.
	b := encodeResult(r)
	if _, err := decodeResult(b[:len(b)-1]); err == nil {
		t.Error("truncated record decoded")
	}
	b[0] = 99
	if _, err := decodeResult(b); err == nil {
		t.Error("version-skewed record decoded")
	}
}

// runToBytes executes a fresh job for the spec and returns its
// canonical aggregate bytes.
func runToBytes(t *testing.T, spec Spec, opts Options) []byte {
	t.Helper()
	j, err := New(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Execute(); err != nil {
		t.Fatal(err)
	}
	b, ok := j.Result()
	if !ok || len(b) == 0 {
		t.Fatalf("no result (status %v)", j.Progress().Status)
	}
	return b
}

func TestExecuteByteIdenticalAcrossWorkersAndCache(t *testing.T) {
	spec := smallSpec()
	ref := runToBytes(t, spec, Options{Jobs: 1}) // the -j 1 reference

	store, err := runcache.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"j8", Options{Jobs: 8}},
		{"j8+disk-cold", Options{Jobs: 8, Disk: store}},
		{"j3+disk-warm", Options{Jobs: 3, Disk: store}},
		{"j1+disk-warm", Options{Jobs: 1, Disk: store}},
	} {
		if got := runToBytes(t, spec, tc.opts); !bytes.Equal(got, ref) {
			t.Errorf("%s: aggregates differ from -j 1 reference\nref: %s\ngot: %s", tc.name, ref, got)
		}
	}

	// The warm re-runs must have been pure cache replays.
	j, err := New(spec, Options{Jobs: 4, Disk: store})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Execute(); err != nil {
		t.Fatal(err)
	}
	p := j.Progress()
	if p.Simulated != 0 {
		t.Errorf("warm re-run simulated %d runs, want 0", p.Simulated)
	}
	if p.HitRate != 1 {
		t.Errorf("warm re-run hit rate %v, want 1", p.HitRate)
	}
	if p.DiskHits != p.TotalRuns {
		t.Errorf("warm re-run disk hits %d, want %d", p.DiskHits, p.TotalRuns)
	}
}

func TestCancelThenResumeFromDisk(t *testing.T) {
	spec := smallSpec()
	spec.Seeds.Count = 400 // enough runway for the cancel to land mid-flight
	ref := runToBytes(t, spec, Options{Jobs: 1})

	dir := t.TempDir()
	store, err := runcache.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	j, err := New(spec, Options{Jobs: 1, Disk: store})
	if err != nil {
		t.Fatal(err)
	}
	// Cancel after the first shard lands: the terminal state must be
	// cancelled (not done/failed) and the prefix must be on disk.
	done := make(chan error, 1)
	go func() { done <- j.Execute() }()
	for j.Progress().RunsDone == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	j.Cancel()
	if err := <-done; err != nil {
		t.Fatalf("cancelled Execute returned %v", err)
	}
	p := j.Progress()
	if p.RunsDone == p.TotalRuns {
		t.Skip("campaign finished before cancel landed; nothing to resume")
	}
	if p.Status != StatusCancelled {
		t.Fatalf("status %v after cancel", p.Status)
	}
	if _, ok := j.Result(); ok {
		t.Fatal("cancelled job served a result")
	}
	persisted := store.Len()
	if persisted == 0 {
		t.Fatal("cancelled campaign persisted nothing")
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh process (new store handle on the same dir) resumes: only
	// the un-persisted suffix simulates, and the bytes still match.
	store2, err := runcache.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if store2.Len() != persisted {
		t.Fatalf("reopened store has %d entries, want %d", store2.Len(), persisted)
	}
	j2, err := New(spec, Options{Jobs: 2, Disk: store2})
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Execute(); err != nil {
		t.Fatal(err)
	}
	got, ok := j2.Result()
	if !ok {
		t.Fatal("resumed job has no result")
	}
	if !bytes.Equal(got, ref) {
		t.Errorf("resumed aggregates differ from -j 1 reference")
	}
	p2 := j2.Progress()
	if want := p2.TotalRuns - uint64(persisted); p2.Simulated != want {
		t.Errorf("resume simulated %d runs, want %d (rest from disk)", p2.Simulated, want)
	}
}

func TestReplicatedCampaignDedupes(t *testing.T) {
	spec := smallSpec()
	spec.Replicate = 5
	store, err := runcache.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	j, err := New(spec, Options{Jobs: 4, Disk: store})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Execute(); err != nil {
		t.Fatal(err)
	}
	p := j.Progress()
	baseSpec := smallSpec()
	base := baseSpec.TotalRuns()
	if p.TotalRuns != 5*base {
		t.Fatalf("total %d, want %d", p.TotalRuns, 5*base)
	}
	if p.RunsDone != p.TotalRuns {
		t.Fatalf("done %d of %d", p.RunsDone, p.TotalRuns)
	}
	if p.Simulated != base {
		t.Errorf("simulated %d distinct runs, want %d (replicas must dedupe)", p.Simulated, base)
	}
	if uint64(store.Len()) != base {
		t.Errorf("store holds %d entries, want %d", store.Len(), base)
	}
	// Aggregate counts scale with replication even though only one
	// replica simulated.
	b, _ := j.Result()
	ag := mustUnmarshalAgg(t, b)
	var runs uint64
	for _, c := range ag.Cells {
		runs += c.Runs
	}
	if runs != p.TotalRuns {
		t.Errorf("aggregated %d runs, want %d", runs, p.TotalRuns)
	}
}

func mustUnmarshalAgg(t *testing.T, b []byte) Aggregates {
	t.Helper()
	var ag Aggregates
	if err := json.Unmarshal(b, &ag); err != nil {
		t.Fatalf("bad canonical aggregates: %v\n%s", err, b)
	}
	return ag
}

func TestAggregatesShape(t *testing.T) {
	spec := smallSpec()
	b := runToBytes(t, spec, Options{Jobs: 2})
	if !strings.HasSuffix(string(b), "\n") {
		t.Error("canonical bytes missing trailing newline")
	}
	ag := mustUnmarshalAgg(t, b)
	if len(ag.Cells) != 2 {
		t.Fatalf("%d cells, want 2", len(ag.Cells))
	}
	if want := (&spec).TotalRuns(); ag.TotalRuns != want {
		t.Errorf("TotalRuns %d, want %d", ag.TotalRuns, want)
	}
	for i, c := range ag.Cells {
		if c.Runs != 10 {
			t.Errorf("cell %d: %d runs, want 10", i, c.Runs)
		}
		if c.EnergyJ.N != c.Runs {
			t.Errorf("cell %d: energy dist over %d, want %d", i, c.EnergyJ.N, c.Runs)
		}
		if c.EnergyJ.Mean <= 0 || c.EnergyJ.Min > c.EnergyJ.Max {
			t.Errorf("cell %d: degenerate energy dist %+v", i, c.EnergyJ)
		}
		if c.TimeS.N != c.Completed {
			t.Errorf("cell %d: time dist over %d, completed %d", i, c.TimeS.N, c.Completed)
		}
		if c.EnergyJ.CI95[0] > c.EnergyJ.Mean || c.EnergyJ.CI95[1] < c.EnergyJ.Mean {
			t.Errorf("cell %d: CI95 %v does not bracket mean %v", i, c.EnergyJ.CI95, c.EnergyJ.Mean)
		}
	}
	if ag.Cells[0].Protocol != "mptcp" || ag.Cells[1].Protocol != "emptcp" {
		t.Errorf("cell order not spec order: %s, %s", ag.Cells[0].Protocol, ag.Cells[1].Protocol)
	}
}

func TestJobFailurePath(t *testing.T) {
	// A job cannot Execute twice.
	j, err := New(smallSpec(), Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Execute(); err != nil {
		t.Fatal(err)
	}
	if err := j.Execute(); err == nil {
		t.Error("second Execute succeeded")
	}
	// New rejects invalid specs.
	if _, err := New(Spec{}, Options{}); err == nil {
		t.Error("New accepted an empty spec")
	}
}
