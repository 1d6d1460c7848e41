//go:build !race

package ntadoc

const raceEnabled = false
