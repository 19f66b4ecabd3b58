//go:build race

package forest

// raceEnabled reports a -race build, whose runtime drops a random share of
// sync.Pool puts, so pooled-allocation counts are not meaningful there.
const raceEnabled = true
