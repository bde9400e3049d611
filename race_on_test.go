//go:build race

package genas

// raceEnabled reports that the race detector is on. It makes sync.Pool drop a
// share of what is put back, so exact allocation pins over pooled buffers
// hold only without it.
const raceEnabled = true
