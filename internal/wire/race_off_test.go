//go:build !race

package wire

const raceEnabled = false
