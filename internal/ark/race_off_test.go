//go:build !race

package ark

// raceEnabled mirrors the stdlib's internal/race.Enabled; see
// race_on_test.go.
const raceEnabled = false
