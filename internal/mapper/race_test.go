//go:build race

package mapper_test

// raceEnabled reports a race-detector build, under which sync.Pool drops
// items at random and allocation counts stop being reproducible.
const raceEnabled = true
