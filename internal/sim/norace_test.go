//go:build !race

package sim

// raceEnabled shrinks the slowest tests under the race detector.
const raceEnabled = false
