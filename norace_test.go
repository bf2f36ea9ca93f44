//go:build !race

package tps

// raceEnabled shrinks the slowest tests under the race detector.
const raceEnabled = false
