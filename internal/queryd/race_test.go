//go:build race

package queryd

// raceEnabled reports a -race build: the race runtime drops sync.Pool
// items at random, so allocation counts are not reproducible under it.
const raceEnabled = true
