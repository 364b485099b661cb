package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestListExperiments(t *testing.T) {
	var out, errb strings.Builder
	if code := run(nil, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"fig1", "fig17", "ext-streaming", "available experiments"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("listing missing %q", want)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-quick", "fig1"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "Figure 1") || !strings.Contains(out.String(), "Samsung Galaxy S3") {
		t.Errorf("fig1 output wrong:\n%s", out.String())
	}
}

func TestRunCSVMode(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-quick", "-csv", "fig1"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out.String(), "Device,WiFi,3G,LTE") {
		t.Errorf("CSV output wrong:\n%s", out.String())
	}
}

func TestNexus5Device(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-device", "n5", "-quick", "table2"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out.String(), "Energy Information Base") {
		t.Error("table2 output missing")
	}
}

func TestBadDevice(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-device", "iphone"}, &out, &errb); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown device") {
		t.Error("missing error message")
	}
}

func TestUnknownExperiment(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"fig99"}, &out, &errb); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
}

func TestBadFlag(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-bogus"}, &out, &errb); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
}

func TestRunAllQuick(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-quick", "all"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	// Every registered experiment must have produced a section.
	for _, id := range []string{"=== fig5", "=== fig16", "=== ext-sweep", "=== fig11"} {
		if !strings.Contains(out.String(), id) {
			t.Errorf("all-run missing %q", id)
		}
	}
}

// TestVerboseRunCacheLine pins the shape of the -v run-cache line. At
// -j 1 no two runs of one key overlap, so none is a duplicate, and the
// suite's shared baselines make some runs hits.
func TestVerboseRunCacheLine(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-quick", "-j", "1", "-v", "all"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	m := regexp.MustCompile(`^runcache: ([0-9]+) hits, ([0-9]+) misses, ([0-9]+) duplicate simulations\n$`).FindStringSubmatch(errb.String())
	if m == nil {
		t.Fatalf("stderr %q is not one run-cache line", errb.String())
	}
	if m[1] == "0" || m[3] != "0" {
		t.Errorf("-j 1 reported %s hits and %s duplicate simulations, want some hits and 0 duplicates", m[1], m[3])
	}
}

func TestJobsFlagDeterministic(t *testing.T) {
	norm := func(s string) string {
		// Wall-time lines vary run to run; drop them before comparing.
		var b strings.Builder
		for _, ln := range strings.Split(s, "\n") {
			if strings.HasSuffix(ln, "wall time)") {
				continue
			}
			b.WriteString(ln)
			b.WriteString("\n")
		}
		return b.String()
	}
	var seq, par, errb strings.Builder
	if code := run([]string{"-quick", "-j", "1", "fig8", "fig14"}, &seq, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if code := run([]string{"-quick", "-j", "8", "fig8", "fig14"}, &par, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if norm(seq.String()) != norm(par.String()) {
		t.Errorf("-j 1 and -j 8 outputs differ:\n--- j1 ---\n%s\n--- j8 ---\n%s", seq.String(), par.String())
	}
}

func TestUnknownExperimentFailsBeforeRunning(t *testing.T) {
	// A bad id anywhere in the list must fail upfront: nothing from the
	// valid leading experiment may reach stdout.
	var out, errb strings.Builder
	if code := run([]string{"-quick", "fig1", "fig99"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if out.Len() != 0 {
		t.Errorf("stdout should be empty on upfront validation failure, got:\n%s", out.String())
	}
	if !strings.Contains(errb.String(), "fig99") {
		t.Error("error message should name the bad id")
	}
}

func TestTraceFlagsWriteFiles(t *testing.T) {
	dir := t.TempDir()
	tf := filepath.Join(dir, "trace.jsonl")
	mf := filepath.Join(dir, "metrics.json")
	var out, errb strings.Builder
	if code := run([]string{"-quick", "-trace", tf, "-metrics", mf, "fig8"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	ev, err := os.ReadFile(tf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(ev), `{"run":0,`) {
		t.Errorf("trace file should start with run 0: %.80s", ev)
	}
	mx, err := os.ReadFile(mf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(mx), `"counters":{`) {
		t.Errorf("metrics file missing counters: %.80s", mx)
	}
}

func TestTraceFlagsByteIdenticalAcrossJobs(t *testing.T) {
	dir := t.TempDir()
	paths := map[string]string{}
	for _, j := range []string{"1", "4"} {
		tf := filepath.Join(dir, "trace-j"+j+".jsonl")
		var out, errb strings.Builder
		if code := run([]string{"-quick", "-j", j, "-trace", tf, "fig8"}, &out, &errb); code != 0 {
			t.Fatalf("-j %s exit %d, stderr: %s", j, code, errb.String())
		}
		paths[j] = tf
	}
	e1, err := os.ReadFile(paths["1"])
	if err != nil {
		t.Fatal(err)
	}
	e4, err := os.ReadFile(paths["4"])
	if err != nil {
		t.Fatal(err)
	}
	if len(e1) == 0 {
		t.Fatal("empty trace file")
	}
	if string(e1) != string(e4) {
		t.Error("trace files differ between -j 1 and -j 4")
	}
}

func TestTraceRequiresSingleExperiment(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-quick", "-trace", "/tmp/x.jsonl", "fig5", "fig8"}, &out, &errb); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "exactly one experiment") {
		t.Errorf("missing error message, got: %s", errb.String())
	}
}

func TestTraceUnwritableFile(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-quick", "-trace", "/nonexistent-dir/x.jsonl", "fig8"}, &out, &errb); code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "writing trace") {
		t.Errorf("missing error message, got: %s", errb.String())
	}
}
