//go:build !race

package genas

const raceEnabled = false
