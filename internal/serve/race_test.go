//go:build race

package serve

// raceEnabled reports a race-detector build, where sync.Pool drops entries
// at random and allocation counts through pooled buffers are not stable.
const raceEnabled = true
