package campaign

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"runtime"
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

// oneCellSpec is a one-cell, one-location grid: replicate × seeds runs.
func oneCellSpec(replicate, seeds int) Spec {
	return Spec{
		WiFi:      []string{"good"},
		LTE:       []string{"good"},
		Locations: []string{"wdc"},
		SizesMB:   []float64{0.25},
		Protocols: []string{"mptcp"},
		Seeds:     SeedRange{Count: seeds},
		Replicate: replicate,
	}
}

// maxReplicate3 × 3 seeds is 2^64−1 runs, the largest count a grid holds.
const maxReplicate3 = (1<<64 - 1) / 3

// A grid of 2^64−1 runs is valid, and its shard count and last shard are
// computed without wrapping: before, ceil(total/size) overflowed to 0
// shards and the job finished at once with nothing run.
func TestLargestGridShards(t *testing.T) {
	j, err := New(oneCellSpec(maxReplicate3, 3), Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := j.g.total; got != 1<<64-1 {
		t.Fatalf("TotalRuns = %d, want 2^64-1", got)
	}
	n := j.exec.nShards()
	if n != 1<<54 {
		t.Fatalf("nShards = %d, want 2^54 shards of 1024", n)
	}
	if lo, hi := j.exec.shardRange(n - 1); lo != 1<<64-1024 || hi != 1<<64-1 {
		t.Errorf("last shard = [%d, %d), want [2^64-1024, 2^64-1)", lo, hi)
	}
	if lo, hi := j.exec.shardRange(0); lo != 0 || hi != 1024 {
		t.Errorf("first shard = [%d, %d), want [0, 1024)", lo, hi)
	}
}

func TestSpecValidateDefaultsAndErrors(t *testing.T) {
	goods := make([]string, 300)
	for i := range goods {
		goods[i] = "good"
	}
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
		// 2^64 runs: the product wrapped to 0, and the job published an
		// empty result as done.
		oneCellSpec(1<<62, 4),
		// 2^64+4 runs: the product wrapped to 4, the key memo's base
		// grid to 0 runs, and the first run divided by zero.
		oneCellSpec(1<<62+1, 4),
		// A ~4 KB body of 300 "good"s in wifi and lte: New compiled
		// 270,000 cells and 270,000 scenarios for it.
		{WiFi: goods, LTE: goods, Seeds: SeedRange{Count: 1}},
		{WiFi: []string{"good", "GOOD"}, Seeds: SeedRange{Count: 1}},
		{LTE: []string{"bad", "good", "bad"}, Seeds: SeedRange{Count: 1}},
		{Locations: []string{"wdc", "Wdc"}, Seeds: SeedRange{Count: 1}},
		{SizesMB: []float64{1, 0.25, 1}, Seeds: SeedRange{Count: 1}},
		{SizesMB: append(maxSizesMB(), 100), Seeds: SeedRange{Count: 1}},
		{Protocols: []string{"mptcp", "emptcp", "MPTCP"}, Seeds: SeedRange{Count: 1}},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("bad spec %d validated: %+v", i, b)
		}
	}
}

// maxSizesMB is the longest sizes_mb list Validate accepts.
func maxSizesMB() []float64 {
	sizes := make([]float64, maxSizes)
	for i := range sizes {
		sizes[i] = float64(i+1) / 4
	}
	return sizes
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
	// Specs without repeated list entries keep the digests they had
	// before Validate refused repeats.
	for _, tc := range []struct {
		spec   Spec
		digest string
	}{
		{smallSpec(), "fc0fc1426b15e391cad16d13e72cc505506e6c77ae138a7fe7887dd5d06ae968"},
		{Spec{Seeds: SeedRange{Count: 1}}, "e77683e3f1d828ca74846f601debf85ae4e9fbaee7527b6c5f0ebb00a0eab5bb"},
		{Spec{Name: "wild", Device: "s3", WiFi: []string{"bad", "good"}, LTE: []string{"bad", "good"},
			Locations: []string{"wdc", "ams", "sng"}, SizesMB: []float64{0.25, 16},
			Protocols: []string{"mptcp", "emptcp", "tcp-wifi"}, Seeds: SeedRange{Base: 11, Count: 200}},
			"7d37c2eb1cae0b7e47e1e6042aeaa7347bb6e3772863e76841b207fba539d6dc"},
		{Spec{Device: "N5", WiFi: []string{"GOOD", "bad"}, LTE: []string{"good"},
			Locations: []string{"SNG", "wdc", "ams"}, SizesMB: []float64{4096, 0.5, 1e-3},
			Protocols: []string{"single-path", "mdp", "wifi-first", "emptcp", "mptcp", "tcp-lte", "tcp-wifi"},
			Seeds:     SeedRange{Base: -5, Count: 7}, Replicate: 3, ShardSize: 9},
			"56b80cccaeee6d5a984358329884fcda6a05a72df3d5b4bbba2494d10da4783f"},
		{Spec{SizesMB: maxSizesMB(), Seeds: SeedRange{Count: 1}}, "c26371ae56f0706ee503f22f6f61ef6e1849658ea998671d14d6e7229b52935e"},
	} {
		d, err := tc.spec.Digest()
		if got := hex.EncodeToString(d[:]); err != nil || got != tc.digest {
			t.Errorf("digest of %+v = %s (%v), want %s", tc.spec, got, err, tc.digest)
		}
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
		e.memoizeKeys()
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
			if got := g.keyAt(i); got != want {
				t.Fatalf("seeds=%d run %d: grid.keyAt differs from the scalar key of %q", seeds, i, sc.Name)
			}
			if got := e.keyAt(i); got != want {
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

// The key memo holds at most maxMemoRuns keys: a base grid of exactly
// that many runs is memoized whole, one run more keeps the memo at the
// bound and keys its last base run through grid.keyAt, an unreplicated
// grid keeps none, and the executor keys every sampled run like the
// grid in each case.
func TestKeyMemoBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct{ replicate, base, memo int }{
		{2, maxMemoRuns, maxMemoRuns},
		{2, maxMemoRuns + 1, maxMemoRuns},
		{1, maxMemoRuns, 0},
	} {
		g, err := compile(oneCellSpec(tc.replicate, tc.base))
		if err != nil {
			t.Fatal(err)
		}
		e := newExecutor(g, nil)
		e.memoizeKeys()
		if len(e.keys) != tc.memo {
			t.Fatalf("base grid of %d runs ×%d: memo of %d keys, want %d", tc.base, tc.replicate, len(e.keys), tc.memo)
		}
		base := uint64(tc.base)
		sample := []uint64{0, 1, maxMemoRuns - 1, base - 1, g.total - 1}
		if g.total > base {
			sample = append(sample, base, base+maxMemoRuns-1, base+maxMemoRuns)
		}
		for k := 0; k < 64; k++ {
			sample = append(sample, rng.Uint64()%g.total)
		}
		for _, i := range sample {
			if e.keyAt(i) != g.keyAt(i) {
				t.Fatalf("base grid of %d runs ×%d: executor key of run %d differs from grid.keyAt", tc.base, tc.replicate, i)
			}
		}
	}
}

// A base grid far past the memo bound runs and cancels like any other.
// This one-cell spec of 2^47 runs validates, and Execute used to panic
// at once allocating a memo of 2^46 keys (makeslice: len out of range)
// outside any recover, ending the process.
func TestHugeBaseGridRunsAndCancels(t *testing.T) {
	j, err := New(oneCellSpec(2, 1<<46), Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- j.Execute() }()
	for j.Progress().RunsDone == 0 {
		select {
		case err := <-done:
			t.Fatalf("Execute returned %v before its first run", err)
		case <-time.After(time.Millisecond):
		}
	}
	j.Cancel()
	if err := <-done; err != nil {
		t.Fatalf("cancelled Execute returned %v", err)
	}
	if p := j.Progress(); p.Status != StatusCancelled {
		t.Fatalf("status %v (%s), want cancelled", p.Status, p.Error)
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

// TestWarmRunAllocs pins the replay path's allocations: a run served
// through a Reader whose block holds its record allocates nothing.
func TestWarmRunAllocs(t *testing.T) {
	store, err := runcache.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	j, err := New(smallSpec(), Options{Jobs: 1, Disk: store})
	if err != nil {
		t.Fatal(err)
	}
	e := j.exec
	rd := store.NewReader()
	if _, hit, err := e.oneRun(3, rd); err != nil || hit { // cold: simulate and store
		t.Fatalf("cold run: hit %v, %v", hit, err)
	}
	if err := store.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, hit, err := e.oneRun(3, rd); err != nil || !hit { // fills rd's block
		t.Fatalf("first warm run: hit %v, %v", hit, err)
	}
	var hits int
	allocs := testing.AllocsPerRun(100, func() {
		_, hit, err := e.oneRun(3, rd)
		if err != nil {
			t.Fatal(err)
		}
		if hit {
			hits++
		}
	})
	if hits != 101 {
		t.Fatalf("%d store hits, want 101 warm runs", hits)
	}
	if allocs != 0 {
		t.Errorf("a warm run allocates %v times, want 0", allocs)
	}
}

// TestWarmFoldAllocs pins one read-ahead block per worker: folding
// shards of a warm store through one Reader allocates the shard
// aggregates and nothing of the size of a block, so a Reader made per
// fold, with its 64 KB block, fails it.
func TestWarmFoldAllocs(t *testing.T) {
	store, err := runcache.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	spec := smallSpec()
	runToBytes(t, spec, Options{Jobs: 1, Disk: store}) // cold: fill the store
	j, err := New(spec, Options{Jobs: 1, Disk: store})
	if err != nil {
		t.Fatal(err)
	}
	e := j.exec
	if e.nShards() < 4 {
		t.Fatalf("%d shards, want at least 4", e.nShards())
	}
	rd := store.NewReader()
	if _, err := e.foldShard(3, rd, nil); err != nil { // fills rd's block
		t.Fatal(err)
	}
	var reps [3]shardReport
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for s := range reps {
		var err error
		if reps[s], err = e.foldShard(uint64(s), rd, nil); err != nil || reps[s].agg == nil {
			t.Fatalf("shard %d: %v", s, err)
		}
	}
	runtime.ReadMemStats(&after)
	const block = 64 << 10 // runcache's read-ahead block
	if perFold := (after.TotalAlloc - before.TotalAlloc) / 3; perFold >= block/2 {
		t.Errorf("a warm fold allocates %d bytes, want under half a %d-byte block", perFold, block)
	}
	for s, rep := range reps {
		if rep.runs == 0 || rep.simulated != 0 || rep.diskHits != rep.runs {
			t.Fatalf("warm shard %d reports %d simulated and %d disk hits of %d runs", s, rep.simulated, rep.diskHits, rep.runs)
		}
	}
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

// TestReplicatedCampaignDedupes: replicas dedupe through the store. At
// -j 1 every replica folds after its original has landed, so the
// campaign simulates exactly the base grid. At -j 4 a replica folded
// while its original is still simulating in another worker simulates
// once more, to identical bytes, and its Put is a no-op: every run is a
// simulation or a store hit, and the store holds exactly the base
// grid's records.
func TestReplicatedCampaignDedupes(t *testing.T) {
	spec := smallSpec()
	spec.Replicate = 5
	baseSpec := smallSpec()
	base := baseSpec.TotalRuns()
	var ref []byte
	for _, jobs := range []int{1, 4} {
		store, err := runcache.OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		j, err := New(spec, Options{Jobs: jobs, Disk: store})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Execute(); err != nil {
			t.Fatal(err)
		}
		p := j.Progress()
		if p.TotalRuns != 5*base {
			t.Fatalf("-j %d: total %d, want %d", jobs, p.TotalRuns, 5*base)
		}
		if p.RunsDone != p.TotalRuns {
			t.Fatalf("-j %d: done %d of %d", jobs, p.RunsDone, p.TotalRuns)
		}
		if jobs == 1 && p.Simulated != base {
			t.Errorf("-j 1: simulated %d runs, want the %d distinct ones (replicas must dedupe)", p.Simulated, base)
		}
		if p.Simulated+p.DiskHits != p.RunsDone {
			t.Errorf("-j %d: %d simulated + %d store hits, want all %d runs", jobs, p.Simulated, p.DiskHits, p.RunsDone)
		}
		if uint64(store.Len()) != base {
			t.Errorf("-j %d: store holds %d entries, want %d", jobs, store.Len(), base)
		}
		// Aggregate counts scale with replication even though the
		// replicas replayed from the store.
		b, _ := j.Result()
		ag := mustUnmarshalAgg(t, b)
		var runs uint64
		for _, c := range ag.Cells {
			runs += c.Runs
		}
		if runs != p.TotalRuns {
			t.Errorf("-j %d: aggregated %d runs, want %d", jobs, runs, p.TotalRuns)
		}
		if ref == nil {
			ref = b
		} else if !bytes.Equal(b, ref) {
			t.Errorf("-j %d aggregates differ from -j 1", jobs)
		}
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
