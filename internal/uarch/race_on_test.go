//go:build race

package uarch

// raceEnabled reports whether the tests run under the race detector, which
// slows the single-goroutine simulator about tenfold.
const raceEnabled = true
