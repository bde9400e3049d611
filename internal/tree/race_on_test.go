//go:build race

package tree

// raceEnabled reports that the race detector is on. It makes sync.Pool drop a
// share of what is put back, so allocation pins over pooled scratch loosen.
const raceEnabled = true
