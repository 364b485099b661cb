//go:build !race

package ptcp

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
