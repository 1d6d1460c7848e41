//go:build race

package sequitur

const raceEnabled = true
