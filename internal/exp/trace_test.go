package exp

import (
	"io"
	"strings"
	"testing"

	"repro/internal/trace"
)

// traceOutputs runs the Figure 8 experiment (two-subflow MPTCP/eMPTCP
// downloads over the random-bandwidth scenario) with tracing on and
// returns the merged JSONL timeline and metrics.
func traceOutputs(t *testing.T, jobs int) (events, metrics string) {
	t.Helper()
	c := &trace.Collector{WantEvents: true, WantMetrics: true, Mask: trace.AllKinds, SampleEvery: 5}
	cfg := Config{Quick: true, Jobs: jobs, Trace: c}
	e := ByID("fig8")
	if e == nil {
		t.Fatal("fig8 not registered")
	}
	e.Run(cfg)
	var eb, mb strings.Builder
	if err := c.WriteJSONL(&eb); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteMetrics(&mb); err != nil {
		t.Fatal(err)
	}
	return eb.String(), mb.String()
}

// The golden determinism contract: the merged trace of a seeded
// experiment is byte-identical whether the runs execute sequentially or
// across four workers.
func TestTraceDeterministicAcrossJobs(t *testing.T) {
	e1, m1 := traceOutputs(t, 1)
	e4, m4 := traceOutputs(t, 4)
	if e1 != e4 {
		t.Error("JSONL timeline differs between -j 1 and -j 4")
	}
	if m1 != m4 {
		t.Error("metrics differ between -j 1 and -j 4")
	}
	if e1 == "" || m1 == "" {
		t.Fatal("trace outputs are empty")
	}
	// Structural golden checks: run tags ascend from 0 and the timeline
	// carries the decision-level kinds the figures need.
	if !strings.HasPrefix(e1, `{"run":0,`) {
		t.Errorf("first trace line should be run 0: %s", firstLine(e1))
	}
	for _, kind := range []string{`"kind":"subflow_add"`, `"kind":"radio_state"`, `"kind":"cwnd"`, `"kind":"deliver"`} {
		if !strings.Contains(e1, kind) {
			t.Errorf("timeline missing %s events", kind)
		}
	}
	if !strings.Contains(m1, `"counters":{`) || !strings.Contains(m1, `"subflows":{"`) {
		t.Errorf("metrics missing aggregate sections:\n%s", firstLine(m1))
	}
}

// Tracing must not perturb the simulation itself: the same experiment
// with and without a collector produces identical tables and metrics.
func TestTraceDoesNotPerturbResults(t *testing.T) {
	e := ByID("fig5")
	if e == nil {
		t.Fatal("fig5 not registered")
	}
	plain := e.Run(Config{Quick: true, Jobs: 2}).String()
	c := &trace.Collector{WantEvents: true}
	traced := e.Run(Config{Quick: true, Jobs: 2, Trace: c}).String()
	if plain != traced {
		t.Errorf("tracing changed experiment output:\n--- plain ---\n%s\n--- traced ---\n%s", plain, traced)
	}
	if c.Runs() == 0 {
		t.Error("collector reserved no runs")
	}
}

// Every registered experiment must trace cleanly with events and
// metrics on. A metrics recorder panics when its samples go back in
// time, which is what a recorder slot shared by two runs produces.
func TestTraceEveryExperiment(t *testing.T) {
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			c := &trace.Collector{WantEvents: true, WantMetrics: true, SampleEvery: 1}
			e.Run(Config{Quick: true, Trace: c})
			if err := c.WriteJSONL(io.Discard); err != nil {
				t.Fatal(err)
			}
			if err := c.WriteMetrics(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
