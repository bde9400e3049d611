//go:build race

package broker

// raceEnabled reports that the race detector is on. It makes sync.Pool drop a
// share of what is put back, so allocation pins over pooled buffers skip.
const raceEnabled = true
