//go:build !race

package idps

const raceEnabled = false
