//go:build race

package ark

// raceEnabled mirrors the stdlib's internal/race.Enabled: allocation
// assertions are skipped under the race detector, whose instrumentation
// allocates on paths that are allocation-free in a normal build.
const raceEnabled = true
