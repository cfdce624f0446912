//go:build race

package credist

// raceEnabled lets allocation and wall-clock gates self-skip under the
// race detector, whose instrumentation distorts both.
const raceEnabled = true
