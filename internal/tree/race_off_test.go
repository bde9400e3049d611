//go:build !race

package tree

const raceEnabled = false
