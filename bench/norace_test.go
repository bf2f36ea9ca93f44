//go:build !race

package main

// raceEnabled shrinks the slowest tests under the race detector.
const raceEnabled = false
