//go:build race

package core

// raceEnabled reports a build under the race detector, whose instrumentation
// allocates on its own: allocation-count guards skip themselves.
const raceEnabled = true
