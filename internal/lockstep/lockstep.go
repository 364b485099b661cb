// Package lockstep is what is left of lane-batched replication, which
// ran k seeds of one scenario as lanes of a shared structure-of-arrays
// dispatcher. It never cleared the keep bar for a second execution path
// and is deleted: every run goes through scenario.Run. The three names
// below exist only because the benchmark module (perfbench/sample.go and
// perfbench/replay.go) still calls them, and they go with the next
// change to that benchmark.
package lockstep

import "repro/internal/scenario"

// Eligible always returns false: no run is lane-batched.
func Eligible(sc scenario.Scenario, proto scenario.Protocol, opt scenario.Opts) bool { return false }

// Run returns scenario.Run(sc, proto, opt) for each seed in order, with
// opt.Seed set to that seed.
func Run(sc scenario.Scenario, proto scenario.Protocol, seeds []int64, opt scenario.Opts) []scenario.Result {
	out := make([]scenario.Result, len(seeds))
	for i, seed := range seeds {
		opt.Seed = seed
		out[i] = scenario.Run(sc, proto, opt)
	}
	return out
}

// Stats always returns (0, 0): no run executes as a lane or is peeled.
func Stats() (lanes, peels int64) { return 0, 0 }
