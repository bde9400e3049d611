//go:build race

package federation_test

// raceEnabled reports that the race detector is on. It makes sync.Pool drop a
// share of what is put back, so allocation pins over pooled scratch skip.
const raceEnabled = true
