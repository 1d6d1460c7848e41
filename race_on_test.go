//go:build race

package ntadoc

// raceEnabled reports a build under the race detector, whose instrumentation
// allocates: the allocation budgets skip themselves there.
const raceEnabled = true
