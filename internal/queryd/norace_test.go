//go:build !race

package queryd

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
