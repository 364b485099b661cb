package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestInvalidInvocationsExitNonZero is the CLI exit-code contract, one
// table: every invalid invocation exits non-zero with a usage message
// on stderr and NOTHING on stdout — so `emptcpsim ... > out.json`
// pipelines can trust that a zero exit produced the output and a
// non-zero exit produced none.
func TestInvalidInvocationsExitNonZero(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-bogus"}},
		{"unknown flag with experiment", []string{"-bogus", "fig1"}},
		{"no cache mode flag", []string{"-cache=false", "fig1"}},
		{"no lockstep mode flag", []string{"-lockstep=0", "fig1"}},
		{"campaign no lockstep mode flag", []string{"campaign", "-lockstep=0", "wild"}},
		{"serve no lockstep mode flag", []string{"serve", "-lockstep=0"}},
		{"worker no lockstep mode flag", []string{"worker", "-coordinator", "http://x", "-lockstep=0"}},
		{"unknown device", []string{"-device", "iphone", "fig1"}},
		{"unknown experiment", []string{"fig99"}},
		{"unknown experiment after valid", []string{"-quick", "fig1", "fig99"}},
		{"zero workers", []string{"-j", "0", "fig1"}},
		{"negative workers", []string{"-j", "-4", "fig1"}},
		{"trace without experiment", []string{"-trace", "x.jsonl"}},
		{"metrics without experiment", []string{"-metrics", "x.json"}},
		{"trace with all", []string{"-quick", "-trace", "x.jsonl", "all"}},
		{"metrics with all", []string{"-quick", "-metrics", "x.json", "all"}},
		{"trace with two experiments", []string{"-quick", "-trace", "x.jsonl", "fig5", "fig8"}},
		{"serve unknown flag", []string{"serve", "-bogus"}},
		{"serve zero workers", []string{"serve", "-j", "0"}},
		{"serve positional arg", []string{"serve", "extra"}},
		{"campaign unknown flag", []string{"campaign", "-bogus"}},
		{"campaign no spec", []string{"campaign"}},
		{"campaign two specs", []string{"campaign", "a.json", "b.json"}},
		{"campaign zero workers", []string{"campaign", "-j", "0", "wild"}},
		{"serve zero lease ttl", []string{"serve", "-lease-ttl", "0s"}},
		{"worker unknown flag", []string{"worker", "-bogus"}},
		{"worker no coordinator", []string{"worker"}},
		{"worker positional arg", []string{"worker", "-coordinator", "http://x", "extra"}},
		{"worker zero jobs", []string{"worker", "-coordinator", "http://x", "-j", "0"}},
		{"worker zero poll", []string{"worker", "-coordinator", "http://x", "-poll", "0s"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb strings.Builder
			code := run(tc.args, &out, &errb)
			if code == 0 {
				t.Errorf("%v: exit 0, want non-zero", tc.args)
			}
			if out.Len() != 0 {
				t.Errorf("%v: stdout not empty:\n%s", tc.args, out.String())
			}
			if errb.Len() == 0 {
				t.Errorf("%v: stderr empty, want a usage message", tc.args)
			}
		})
	}

	// Runtime failures (valid invocation, bad environment) exit 1, still
	// with clean stdout. A regular file as a -cachedir parent makes
	// OpenStore's MkdirAll fail without touching anything real.
	notADir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notADir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		args   []string
		stderr string // a substring stderr must hold
	}{
		{"campaign missing spec file", []string{"campaign", filepath.Join(t.TempDir(), "no-such-spec.json")}, ""},
		{"campaign malformed spec", []string{"campaign", "-"}, ""}, // stdin is empty/invalid under go test
		{"campaign bad cachedir", []string{"campaign", "-cachedir", filepath.Join(notADir, "sub"), "-population", "1", "wild"}, ""},
		{"campaign NaN size", []string{"campaign", "-j", "1", "-size", "NaN", "-population", "1", "wild"}, "size NaNMB out of range (0, 4096]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb strings.Builder
			code := run(tc.args, &out, &errb)
			if code != 1 {
				t.Errorf("%v: exit %d, want 1 (stderr: %s)", tc.args, code, errb.String())
			}
			if out.Len() != 0 {
				t.Errorf("%v: stdout not empty:\n%s", tc.args, out.String())
			}
			if !strings.Contains(errb.String(), tc.stderr) {
				t.Errorf("%v: stderr %q, want it to hold %q", tc.args, errb.String(), tc.stderr)
			}
		})
	}
}

func TestHelpExitsZero(t *testing.T) {
	for _, args := range [][]string{{"-h"}, {"serve", "-h"}, {"campaign", "-h"}, {"worker", "-h"}} {
		var out, errb strings.Builder
		if code := run(args, &out, &errb); code != 0 {
			t.Errorf("%v: exit %d, want 0", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("%v: help wrote to stdout:\n%s", args, out.String())
		}
		if !strings.Contains(errb.String(), "Usage") && !strings.Contains(errb.String(), "usage") {
			t.Errorf("%v: no usage text on stderr", args)
		}
	}
}

// tinySpecFile writes a minimal fast campaign spec and returns its path.
func tinySpecFile(t *testing.T, dir string) string {
	t.Helper()
	spec := map[string]any{
		"name": "cli-test", "wifi": []string{"bad"}, "lte": []string{"good"},
		"locations": []string{"wdc"}, "sizes_mb": []float64{0.25},
		"protocols": []string{"emptcp"}, "seeds": map[string]any{"base": 3, "count": 4},
		"shard_size": 2,
	}
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCampaignSubcommand(t *testing.T) {
	dir := t.TempDir()
	specPath := tinySpecFile(t, dir)

	// -j 1 to stdout is the reference.
	var ref, errb strings.Builder
	if code := run([]string{"campaign", "-j", "1", specPath}, &ref, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(ref.String(), `"spec_digest"`) || !strings.Contains(ref.String(), `"cells"`) {
		t.Fatalf("aggregate JSON malformed:\n%s", ref.String())
	}

	// Parallel + persistent cache: byte-identical to the reference.
	cache := filepath.Join(dir, "cache")
	var par strings.Builder
	errb.Reset()
	if code := run([]string{"campaign", "-j", "4", "-cachedir", cache, "-v", specPath}, &par, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if par.String() != ref.String() {
		t.Errorf("-j 4 + cachedir output differs from -j 1:\n%s\nvs\n%s", par.String(), ref.String())
	}
	if !strings.Contains(errb.String(), "hit rate") {
		t.Errorf("-v wrote no stats to stderr: %s", errb.String())
	}
	// The -v contract also covers the persistent store's counters
	// (single-run -v prints the in-process cache's analogues).
	if !strings.Contains(errb.String(), "runcache store:") {
		t.Errorf("-v missing store stats on stderr: %s", errb.String())
	}

	// Re-run against the warm cache via -o FILE: same bytes, zero
	// simulated.
	outPath := filepath.Join(dir, "agg.json")
	var out2 strings.Builder
	errb.Reset()
	if code := run([]string{"campaign", "-j", "2", "-cachedir", cache, "-v", "-o", outPath, specPath}, &out2, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if out2.Len() != 0 {
		t.Errorf("-o FILE still wrote to stdout:\n%s", out2.String())
	}
	fromFile, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(fromFile) != ref.String() {
		t.Error("warm-cache -o output differs from reference")
	}
	if !strings.Contains(errb.String(), "0 simulated") {
		t.Errorf("warm re-run was not a pure replay: %s", errb.String())
	}

	// The built-in wild spec runs end to end at a tiny population.
	var wild strings.Builder
	errb.Reset()
	if code := run([]string{"campaign", "-population", "1", "-size", "0.25", "-quickish", "wild"}, &wild, &errb); code == 0 {
		t.Fatal("bogus flag accepted")
	}
	errb.Reset()
	wild.Reset()
	if code := run([]string{"campaign", "-population", "1", "-size", "0.25", "wild"}, &wild, &errb); code != 0 {
		t.Fatalf("wild campaign exit %d, stderr: %s", code, errb.String())
	}
	// 4 categories × 3 locations × 3 protocols × 1 seed = 36 runs,
	// 12 cells.
	if got := strings.Count(wild.String(), `"protocol"`); got != 12 {
		t.Errorf("wild campaign produced %d cells, want 12:\n%.400s", got, wild.String())
	}
}
