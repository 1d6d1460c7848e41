//go:build !race

package sequitur

const raceEnabled = false
