package scenario

// ForkStats always returns (0, 0). Sweeps once shared simulated prefixes
// through a checkpoint/fork executor, and this reported its tree and
// forked-run counts; the executor is gone and every sweep point is an
// ordinary Run. The function exists only because the benchmark module
// (perfbench/sample.go) still calls it, and it goes with the next change
// to that benchmark.
func ForkStats() (trees, runs int64) { return 0, 0 }
