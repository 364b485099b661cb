package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/exp"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps span 2: counted once
		{ID: 4, Parent: 1, Start: 90, End: 120}, // clipped to the parent's end
		{ID: 5, Parent: 3, Start: 25, End: 45},  // a grandchild covers its parent only
		{ID: 6, Start: 200, End: 210},
	}
	got := selfTimes(spans)
	want := map[int32]int64{1: 100 - 40 - 10, 2: 20, 3: 30 - 20, 4: 30, 5: 20, 6: 10}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d self time = %d, want %d", id, got[id], w)
		}
	}
}

func TestTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n       int
		v, pct  float64
		hasTail bool
	}{
		{10, 0, 0, false},
		{11, 1, 100.0 / 11, true},
		{20, 10, 50, true},
		{100, 90, 90, true},
		{1000, 990, 99, true},
	} {
		v, pct, ok := tail(seq(tc.n))
		if ok != tc.hasTail || v != tc.v || pct != tc.pct {
			t.Errorf("tail of 1..%d = (%v, p%v, %v), want (%v, p%v, %v)", tc.n, v, pct, ok, tc.v, tc.pct, tc.hasTail)
		}
		if ok {
			beyond := 0
			for _, x := range seq(tc.n) {
				if x > v {
					beyond++
				}
			}
			if beyond != 10 {
				t.Errorf("tail of 1..%d leaves %d samples beyond it, want 10", tc.n, beyond)
			}
		}
	}
}

func TestQuantileMatchesPythonInclusive(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8], n=4, method="inclusive") == [1.75, 3.0, 5.0]
	xs := []float64{8, 1, 4, 2}
	for q, want := range map[float64]float64{0.25: 1.75, 0.5: 3, 0.75: 5} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

func TestNameSyntax(t *testing.T) {
	unitSyntax := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name string) {
		if !nameSyntax.MatchString(name) {
			t.Errorf("name %q breaks the name syntax", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	for _, m := range append(append(append([]metricDef{}, endToEnd...), wallClock...), perLayer()...) {
		check(m.Name)
		if !unitSyntax.MatchString(m.Unit) {
			t.Errorf("%s: unit %q breaks the unit syntax", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, bad := range []string{"", "-lead", "sp ace", "a/b", strings.Repeat("x", 65)} {
		if nameSyntax.MatchString(bad) {
			t.Errorf("name syntax accepts %q", bad)
		}
	}
}

// TestBenchmarkJSON checks that the committed BENCHMARK.json is exactly
// what the metric registries generate; regenerate it with
// `.bench_build/perfbench benchmark-json > BENCHMARK.json`.
func TestBenchmarkJSON(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the registries:\n%s", want)
	}
}

// TestPrintedNames checks that a timed run prints exactly the
// end-to-end names and a traced run exactly the per-layer names of
// BENCHMARK.json.
func TestPrintedNames(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	names := func(ms []metricDef) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		sort.Strings(out)
		return out
	}
	keys := func(m map[string]metricValue) []string {
		var out []string
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	one := measured{sample: sample{Wall: 1, CPU: 1, Runs: 10, RSSMB: 1, StoreMB: 1,
		Layer: map[string]float64{coveredKey: 0.5, "scenario.key_us": 3}}, setup: 0.01}
	if got, want := keys(endToEndMetrics([]measured{one})), names(doc.EndToEnd); !equal(got, want) {
		t.Errorf("timed run prints %v, BENCHMARK.json lists %v", got, want)
	}
	b := &bench{stdout: &bytes.Buffer{}}
	layer := map[string]metricValue{}
	b.layers(layer, []measured{one}, []measured{one})
	if got, want := keys(layer), names(doc.PerLayer); !equal(got, want) {
		t.Errorf("traced run prints %v, BENCHMARK.json lists %v", got, want)
	}
}

func equal(a, b []string) bool {
	return strings.Join(a, "\n") == strings.Join(b, "\n")
}

// TestSeedDeterminesInputs checks that the same seed gives the same
// digest and that different seeds give different inputs, on a campaign
// shrunk to two seeds per cell and on one experiment of the suite.
func TestSeedDeterminesInputs(t *testing.T) {
	small := func(seed int64) campaign.Spec {
		s := wildSpec(seed, 2, 0)
		s.SizesMB = []float64{0.25}
		return s
	}
	if a, b := wildSpec(3, population, 0), wildSpec(4, population, 0); a.Seeds.Base == b.Seeds.Base {
		t.Errorf("seeds 3 and 4 share seed base %d", a.Seeds.Base)
	}
	d := map[int64]string{}
	for _, seed := range []int64{3, 3, 4} {
		got, err := execute(small(seed), t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if prev, ok := d[seed]; ok && prev != got {
			t.Errorf("seed %d: campaign digests %s and %s differ", seed, prev, got)
		}
		d[seed] = got
	}
	if d[3] == d[4] {
		t.Errorf("seeds 3 and 4 give the same campaign digest")
	}

	fig := exp.ByID("fig8")
	suite := map[int64]string{}
	for _, seed := range []int64{3, 3, 4} {
		var b strings.Builder
		if err := renderExperiment(&b, fig, exp.Config{BaseSeed: seed, Jobs: 1}, nil); err != nil {
			t.Fatal(err)
		}
		got := digest([]byte(b.String()))
		if prev, ok := suite[seed]; ok && prev != got {
			t.Errorf("seed %d: fig8 digests differ", seed)
		}
		suite[seed] = got
	}
	if suite[3] == suite[4] {
		t.Errorf("seeds 3 and 4 render fig8 identically")
	}
}
