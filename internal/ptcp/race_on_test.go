//go:build race

package ptcp

// raceEnabled reports whether the race detector is active. Under -race,
// sync.Pool deliberately drops a fraction of Puts to widen race
// coverage, so pool-allocation counts are not meaningful there.
const raceEnabled = true
