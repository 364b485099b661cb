package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// The golden files under testdata/ were generated by the pre-batching
// binary (before the round-coalescing fast path landed in internal/sim
// and internal/tcp), so these tests pin the batched simulator to the
// unbatched simulator's exact bytes. Round coalescing has no off-switch:
// whatever the batcher does, the output must match these files verbatim.
//
// Regenerate only when an intentional model change lands, with:
//
//	go run ./cmd/emptcpsim -quick -j 1 all | grep -v "wall time)$"
//	go run ./cmd/emptcpsim -quick -csv -j 1 all | grep -v "wall time)$"
//	go run ./cmd/emptcpsim -quick -j 1 -trace ... -metrics ... fig8
//
// and then bump scenario.KeyVersion and add its row to modelDigests, so
// run caches filled by the old model miss.

// normWallTime drops the per-experiment wall-time lines, the only
// non-deterministic part of the output.
func normWallTime(s string) string {
	lines := strings.Split(s, "\n")
	kept := lines[:0]
	for _, ln := range lines {
		if strings.HasSuffix(ln, "wall time)") {
			continue
		}
		kept = append(kept, ln)
	}
	return strings.Join(kept, "\n")
}

func readGolden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func firstDiffLine(got, want string) (int, string, string) {
	gl := strings.Split(got, "\n")
	wl := strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			return i + 1, gl[i], wl[i]
		}
	}
	if len(gl) < len(wl) {
		return len(gl) + 1, "<EOF>", wl[len(gl)]
	}
	return len(wl) + 1, gl[len(wl)], "<EOF>"
}

// TestGoldenAllOutput runs the full experiment suite in quick mode at
// -j 1 and -j 4, in text and CSV form, and requires byte-identical
// output to the pre-batching binary's. Output with the run cache off is
// compared with cached output per experiment by exp.TestCacheGoldenOutput.
func TestGoldenAllOutput(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		golden string
	}{
		{"text-j1-cache", []string{"-quick", "-j", "1", "all"}, "golden_all_quick.txt"},
		{"text-j4-cache", []string{"-quick", "-j", "4", "all"}, "golden_all_quick.txt"},
		{"csv-j1-cache", []string{"-quick", "-csv", "-j", "1", "all"}, "golden_all_quick.csv"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb strings.Builder
			if code := run(tc.args, &out, &errb); code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, errb.String())
			}
			got := normWallTime(out.String())
			want := readGolden(t, tc.golden)
			if got != want {
				n, g, w := firstDiffLine(got, want)
				t.Errorf("output diverges from %s at line %d:\n got: %q\nwant: %q",
					tc.golden, n, g, w)
			}
		})
	}
}

// TestGoldenTraceAndMetrics pins the structured trace outputs: the JSONL
// event timeline and per-run metrics of the Fig. 8 scenario must match
// the pre-batching binary's byte for byte (these files have no wall-time
// lines, so the comparison is raw).
func TestGoldenTraceAndMetrics(t *testing.T) {
	dir := t.TempDir()
	tf := filepath.Join(dir, "trace.jsonl")
	mf := filepath.Join(dir, "metrics.json")
	var out, errb strings.Builder
	if code := run([]string{"-quick", "-j", "1", "-trace", tf, "-metrics", mf, "fig8"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, c := range []struct{ path, golden string }{
		{tf, "golden_fig8_trace.jsonl"},
		{mf, "golden_fig8_metrics.json"},
	} {
		got, err := os.ReadFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		want := readGolden(t, c.golden)
		if string(got) != want {
			n, g, w := firstDiffLine(string(got), want)
			t.Errorf("%s diverges at line %d:\n got: %.200q\nwant: %.200q", c.golden, n, g, w)
		}
	}
}

// modelDigests maps each scenario.KeyVersion to the SHA-256 of the model
// outputs it was cut for: golden_all_quick.txt, golden_all_quick.csv and
// the aggregate bytes of modelCampaign, in that order. Results are
// cached and persisted under keys that lead with KeyVersion, so a model
// whose outputs change under an unchanged version would replay the old
// model's results from every filled store.
var modelDigests = map[int]string{
	3: "f83c604e87b5c6395459e0f661beb43b8a6aa0c8da37d841b9423b15f3ddcd23",
	4: "f83c604e87b5c6395459e0f661beb43b8a6aa0c8da37d841b9423b15f3ddcd23",
}

// modelCampaign is the small wild grid whose aggregates the digest
// covers beside the goldens: 72 runs of 4 MB downloads.
var modelCampaign = []string{"campaign", "-j", "1", "-population", "2", "-size", "4", "wild"}

// TestKeyVersionPinsModelOutputs fails when the model's outputs change
// without a KeyVersion bump, or when the version has no row above.
func TestKeyVersionPinsModelOutputs(t *testing.T) {
	h := sha256.New()
	for _, name := range []string{"golden_all_quick.txt", "golden_all_quick.csv"} {
		h.Write([]byte(readGolden(t, name)))
	}
	var out, errb strings.Builder
	if code := run(modelCampaign, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	h.Write([]byte(out.String()))
	got := hex.EncodeToString(h.Sum(nil))
	want, ok := modelDigests[scenario.KeyVersion]
	switch {
	case !ok:
		t.Errorf("modelDigests has no row for KeyVersion %d: add %d: %q", scenario.KeyVersion, scenario.KeyVersion, got)
	case got != want:
		t.Errorf("model outputs changed under KeyVersion %d (digest %s, pinned %s): bump scenario.KeyVersion to %d and add the row %d: %q",
			scenario.KeyVersion, got, want, scenario.KeyVersion+1, scenario.KeyVersion+1, got)
	}
}
