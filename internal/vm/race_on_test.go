//go:build race

package vm

// raceEnabled lets the heaviest corpora shrink under the race detector,
// which slows the interpreter about tenfold.
const raceEnabled = true
