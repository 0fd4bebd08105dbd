//go:build race

package core

// raceEnabled skips exact allocation-count assertions under the race
// detector, whose instrumentation defeats sync.Pool reuse.
const raceEnabled = true
