//go:build race

package storage

// raceEnabled reports a -race build, whose instrumentation inflates
// allocations, so byte-count guards skip themselves under it.
const raceEnabled = true
