//go:build race

package wire

// raceEnabled reports that the race detector is on, under which allocation
// pins do not hold.
const raceEnabled = true
