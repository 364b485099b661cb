// Package campaign is the population-scale layer above the single-run
// simulator: it treats "simulate a population of millions of devices"
// as a first-class job. A declarative Spec names a parameter grid —
// device profile × link-quality categories × server locations ×
// workload sizes × protocols × a seed range, optionally replicated —
// and the executor streams every grid point through fixed-memory
// streaming aggregators (internal/stats.Stream), never retaining
// per-run results, so a 10⁶-run campaign runs in constant memory.
// Results are memoized in a persistent content-addressed disk cache
// (internal/runcache.Store) under the same sha256 keys the in-process
// run cache uses, so campaigns dedupe and resume across invocations;
// the HTTP control plane in server.go exposes submit/status/result/
// cancel as the `emptcpsim serve` capacity-planning service.
//
// Determinism: a campaign's aggregates are a pure function of its Spec.
// The run grid is enumerated in a fixed order, folded into fixed-size
// shards, and shard aggregates are merged in shard order — so the
// output bytes are identical at any worker count, with or without the
// disk cache, resumed or not.
package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/energy"
	"repro/internal/runcache"
	"repro/internal/scenario"
	"repro/internal/units"
	"repro/internal/workload"
)

// SeedRange is a contiguous run-seed range: Base, Base+1, …,
// Base+Count−1. Seeds are shared across protocols and categories (the
// paper's paired-measurement design), so comparisons within a campaign
// are matched.
type SeedRange struct {
	Base  int64 `json:"base"`
	Count int   `json:"count"`
}

// Spec declares one campaign: the §5.1 in-the-wild grid generalised to
// arbitrary sizes and populations. The zero values of optional fields
// are normalised by Validate; the digest is taken over the normalised
// spec, so two spellings of the same campaign share an identity.
type Spec struct {
	// Name is a human label; it does not affect the digest's run grid
	// but is part of campaign identity (two names = two campaigns).
	Name string `json:"name,omitempty"`
	// Device is the handset profile: "s3" (default) or "n5".
	Device string `json:"device,omitempty"`
	// WiFi and LTE list the link-quality categories to cross:
	// "good" (≥8 Mbps draws) or "bad". Default: both.
	WiFi []string `json:"wifi,omitempty"`
	LTE  []string `json:"lte,omitempty"`
	// Locations lists server deployments ("wdc", "ams", "sng");
	// runs spread across them within each cell. Default: all three.
	Locations []string `json:"locations,omitempty"`
	// SizesMB lists file-download sizes in MB. Default: 16.
	SizesMB []float64 `json:"sizes_mb,omitempty"`
	// Protocols lists the transports to compare: "tcp-wifi", "tcp-lte",
	// "mptcp", "emptcp", "wifi-first", "mdp", "single-path".
	// Default: mptcp, emptcp, tcp-wifi (the whisker-figure trio).
	Protocols []string `json:"protocols,omitempty"`
	// Seeds is the per-cell seed range (population size per cell ×
	// location). Required: Count ≥ 1.
	Seeds SeedRange `json:"seeds"`
	// Replicate repeats the whole grid N times (default 1). Replicas
	// re-ask every question the grid poses — the population-scale query
	// pattern — and dedupe onto the first replica through the cache, so
	// aggregate counts scale to N× the grid while simulating it once.
	Replicate int `json:"replicate,omitempty"`
	// ShardSize is the number of runs per aggregation shard (default
	// 1024). It fixes the deterministic merge boundaries and bounds the
	// out-of-order buffer; it does not affect results beyond shaping
	// the (fixed) float reduction order.
	ShardSize int `json:"shard_size,omitempty"`
}

// Validate normalises the spec in place (filling defaults) and checks
// every enumerated value, returning a descriptive error for the HTTP
// 400 path.
func (s *Spec) Validate() error {
	if s.Device == "" {
		s.Device = "s3"
	}
	if _, err := deviceOf(s.Device); err != nil {
		return err
	}
	if len(s.WiFi) == 0 {
		s.WiFi = []string{"bad", "good"}
	}
	if len(s.LTE) == 0 {
		s.LTE = []string{"bad", "good"}
	}
	if len(s.Locations) == 0 {
		s.Locations = []string{"wdc", "ams", "sng"}
	}
	if len(s.SizesMB) == 0 {
		s.SizesMB = []float64{16}
	}
	if len(s.SizesMB) > maxSizes {
		return fmt.Errorf("campaign: sizes_mb lists %d sizes, at most %d", len(s.SizesMB), maxSizes)
	}
	if len(s.Protocols) == 0 {
		s.Protocols = []string{"mptcp", "emptcp", "tcp-wifi"}
	}
	if _, err := parseDistinct("wifi", s.WiFi, qualityOf); err != nil {
		return err
	}
	if _, err := parseDistinct("lte", s.LTE, qualityOf); err != nil {
		return err
	}
	if _, err := parseDistinct("locations", s.Locations, locationOf); err != nil {
		return err
	}
	if _, err := parseDistinct("sizes_mb", s.SizesMB, sizeOf); err != nil {
		return err
	}
	if _, err := parseDistinct("protocols", s.Protocols, protocolOf); err != nil {
		return err
	}
	if s.Seeds.Count < 1 {
		return fmt.Errorf("campaign: seeds.count must be ≥ 1 (got %d)", s.Seeds.Count)
	}
	if s.Replicate == 0 {
		s.Replicate = 1
	}
	if s.Replicate < 1 {
		return fmt.Errorf("campaign: replicate must be ≥ 1 (got %d)", s.Replicate)
	}
	if s.ShardSize == 0 {
		s.ShardSize = 1024
	}
	if s.ShardSize < 1 {
		return fmt.Errorf("campaign: shard_size must be ≥ 1 (got %d)", s.ShardSize)
	}
	if _, ok := s.runCount(); !ok {
		return fmt.Errorf("campaign: the grid has more than 2^64-1 runs (replicate %d, seeds.count %d)",
			s.Replicate, s.Seeds.Count)
	}
	return nil
}

// maxSizes caps a spec's download sizes. With every other list free of
// repeats (2 qualities, 3 locations, 7 protocols), a spec then compiles
// at most 2·2·64·7 = 1,792 cells and 2·2·64·3 = 768 scenarios.
const maxSizes = 64

// parseDistinct parses every entry of one spec list and refuses an
// entry that names the same value as an earlier one ("good" and "GOOD"
// included): a repeat only copies cells and scenarios, and the copies
// grow with the square of the list's length.
func parseDistinct[S any, T comparable](field string, in []S, parse func(S) (T, error)) ([]T, error) {
	out := make([]T, 0, len(in))
	for _, x := range in {
		v, err := parse(x)
		if err != nil {
			return nil, err
		}
		if slices.Contains(out, v) {
			return nil, fmt.Errorf("campaign: %s repeats %v", field, x)
		}
		out = append(out, v)
	}
	return out, nil
}

// runCount multiplies the grid's factors, reporting false when the
// product does not fit in a uint64. Every factor of a normalised spec
// is at least 1.
func (s *Spec) runCount() (n uint64, ok bool) {
	n = uint64(s.Replicate)
	for _, f := range []int{len(s.WiFi), len(s.LTE), len(s.SizesMB), len(s.Protocols), len(s.Locations), s.Seeds.Count} {
		hi, lo := bits.Mul64(n, uint64(f))
		if hi != 0 {
			return 0, false
		}
		n = lo
	}
	return n, true
}

// TotalRuns is the campaign's grid size including replication,
// computed over the normalised form (0 for an invalid spec).
func (s *Spec) TotalRuns() uint64 {
	n := *s
	if err := n.Validate(); err != nil {
		return 0
	}
	total, _ := n.runCount()
	return total
}

// DecodeSpec reads one JSON spec, refusing fields Spec does not have.
// The HTTP submit handler and `emptcpsim campaign` read specs through
// it; New validates what it returns.
func DecodeSpec(r io.Reader) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&s)
	return s, err
}

// Digest is the campaign's content identity: a sha256 over the
// canonical JSON encoding of the normalised spec. Equal digests mean
// equal run grids and therefore byte-identical aggregates.
func (s *Spec) Digest() ([32]byte, error) {
	n := *s // normalise a copy so Digest is const on validated specs
	if err := n.Validate(); err != nil {
		return [32]byte{}, err
	}
	b, err := json.Marshal(n)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(b), nil
}

// ID is the short hex form of the digest used as the campaign's HTTP
// resource name.
func (s *Spec) ID() (string, error) {
	d, err := s.Digest()
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(d[:])[:16], nil
}

func deviceOf(name string) (*energy.DeviceProfile, error) {
	switch strings.ToLower(name) {
	case "s3":
		return energy.GalaxyS3(), nil
	case "n5":
		return energy.Nexus5(), nil
	}
	return nil, fmt.Errorf("campaign: unknown device %q (want s3 or n5)", name)
}

func qualityOf(name string) (scenario.Quality, error) {
	switch strings.ToLower(name) {
	case "good":
		return scenario.Good, nil
	case "bad":
		return scenario.Bad, nil
	}
	return 0, fmt.Errorf("campaign: unknown link quality %q (want good or bad)", name)
}

func locationOf(name string) (scenario.ServerLoc, error) {
	switch strings.ToLower(name) {
	case "wdc":
		return scenario.WDC, nil
	case "ams":
		return scenario.AMS, nil
	case "sng":
		return scenario.SNG, nil
	}
	return 0, fmt.Errorf("campaign: unknown server location %q (want wdc, ams, or sng)", name)
}

func sizeOf(mb float64) (float64, error) {
	if !(mb > 0 && mb <= 4096) { // so that NaN fails too
		return 0, fmt.Errorf("campaign: size %vMB out of range (0, 4096]", mb)
	}
	return mb, nil
}

func protocolOf(name string) (scenario.Protocol, error) {
	switch strings.ToLower(name) {
	case "tcp-wifi":
		return scenario.TCPWiFi, nil
	case "tcp-lte":
		return scenario.TCPLTE, nil
	case "mptcp":
		return scenario.MPTCP, nil
	case "emptcp":
		return scenario.EMPTCP, nil
	case "wifi-first":
		return scenario.WiFiFirst, nil
	case "mdp":
		return scenario.MDP, nil
	case "single-path":
		return scenario.SinglePath, nil
	}
	return 0, fmt.Errorf("campaign: unknown protocol %q", name)
}

// grid is the compiled form of a validated spec: every run index maps
// to one (scenario, protocol, seed) triple and one aggregation cell.
// Enumeration order (outermost first) is replicate, wifi, lte, size,
// protocol, location, seed — fixed forever, since the shard-merge
// determinism and the disk-cache resume both replay it.
type grid struct {
	spec   Spec
	wifi   []scenario.Quality
	lte    []scenario.Quality
	locs   []scenario.ServerLoc
	protos []scenario.Protocol
	total  uint64

	// scens holds each distinct scenario once, with its base key, at
	// index ((wifi·nLTE + lte)·nSize + size)·nLoc + loc: only the
	// protocol and the seed vary within one. compile fills it; it is
	// read-only after, so every worker shares it.
	scens []compiledScenario
}

// compiledScenario is one grid scenario and its scenario.BaseKey.
type compiledScenario struct {
	sc   scenario.Scenario
	base runcache.Key
}

func compile(spec Spec) (*grid, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	g := &grid{spec: spec}
	device, err := deviceOf(spec.Device)
	if err != nil {
		return nil, err
	}
	// Validate has parsed every list, so these cannot fail.
	g.wifi, _ = parseDistinct("wifi", spec.WiFi, qualityOf)
	g.lte, _ = parseDistinct("lte", spec.LTE, qualityOf)
	g.locs, _ = parseDistinct("locations", spec.Locations, locationOf)
	g.protos, _ = parseDistinct("protocols", spec.Protocols, protocolOf)
	g.total = spec.TotalRuns()
	g.scens = make([]compiledScenario, 0, len(g.wifi)*len(g.lte)*len(spec.SizesMB)*len(g.locs))
	for _, wq := range g.wifi {
		for _, lq := range g.lte {
			for _, mb := range spec.SizesMB {
				work := workload.FileDownload{Size: units.ByteSize(mb * float64(units.MB))}
				for _, loc := range g.locs {
					sc := scenario.Wild(device, wq, lq, loc, work)
					base, ok := scenario.BaseKey(sc)
					if !ok {
						return nil, fmt.Errorf("campaign: scenario %q has no cache key", sc.Name)
					}
					g.scens = append(g.scens, compiledScenario{sc: sc, base: base})
				}
			}
		}
	}
	return g, nil
}

// cells is the number of aggregation cells: every (wifi, lte, size,
// protocol) combination. Locations, seeds, and replicas aggregate into
// their cell.
func (g *grid) cells() int {
	return len(g.wifi) * len(g.lte) * len(g.spec.SizesMB) * len(g.protos)
}

// cellAt is the aggregation cell of run i.
func (g *grid) cellAt(i uint64) int {
	_, _, _, cell := g.at(i)
	return cell
}

// runsBelow counts the runs of [0, x) that fold into cell c, in O(1).
// The grid enumerates location and seed innermost, so one cell's runs
// form blocks of B = locations·seeds runs that recur every P = B·cells
// runs: the count is ⌊x/P⌋·B + min(B, max(0, x mod P − c·B)). P is at
// most the grid's run count, so nothing overflows.
func (g *grid) runsBelow(x uint64, c int) uint64 {
	b := uint64(len(g.locs)) * uint64(g.spec.Seeds.Count)
	p := b * uint64(g.cells())
	n, r, off := x/p*b, x%p, uint64(c)*b
	if r > off {
		n += min(b, r-off)
	}
	return n
}

// at decodes run index i into its compiled scenario, protocol, seed,
// and aggregation cell: index arithmetic and a table read.
func (g *grid) at(i uint64) (c *compiledScenario, proto scenario.Protocol, seed int64, cell int) {
	nSeed := uint64(g.spec.Seeds.Count)
	nLoc := uint64(len(g.locs))
	nProto := uint64(len(g.protos))
	nSize := uint64(len(g.spec.SizesMB))
	nLTE := uint64(len(g.lte))

	seedIdx := i % nSeed
	i /= nSeed
	locIdx := i % nLoc
	i /= nLoc
	protoIdx := i % nProto
	i /= nProto
	sizeIdx := i % nSize
	i /= nSize
	lteIdx := i % nLTE
	i /= nLTE
	wifiIdx := i % uint64(len(g.wifi))
	// The remaining quotient is the replica number; it changes nothing
	// about the run, which is exactly what makes replicas cache hits.

	c = &g.scens[((wifiIdx*nLTE+lteIdx)*nSize+sizeIdx)*nLoc+locIdx]
	proto = g.protos[protoIdx]
	seed = g.spec.Seeds.Base + int64(seedIdx)
	cell = int(((wifiIdx*nLTE+lteIdx)*nSize+sizeIdx)*nProto + protoIdx)
	return c, proto, seed, cell
}

// runAt decodes run index i into its scenario, protocol, seed, and
// aggregation cell. The scenario is the compiled one, shared by every
// run of its (wifi, lte, size, location) coordinates.
func (g *grid) runAt(i uint64) (scenario.Scenario, scenario.Protocol, int64, int) {
	c, proto, seed, cell := g.at(i)
	return c.sc, proto, seed, cell
}

// keyAt returns run i's cache key: the compiled scenario's base key
// completed with the run's protocol and seed by one scenario.RunKey.
// It equals scenario.CacheKey of runAt(i). RunKey refuses only a run
// with a Recorder, and campaign runs have none.
func (g *grid) keyAt(i uint64) runcache.Key {
	c, proto, seed, _ := g.at(i)
	k, _ := scenario.RunKey(c.base, proto, scenario.Opts{Seed: seed})
	return k
}
