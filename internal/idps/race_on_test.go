//go:build race

package idps

// raceEnabled skips exact allocation-count assertions under the race
// detector, whose instrumentation allocates on its own.
const raceEnabled = true
