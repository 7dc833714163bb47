//go:build !race

package dsp

// raceEnabled reports whether the race detector is compiled in. Allocation-
// count tests that go through sync.Pool skip under -race: the detector makes
// pools drop items at random, so AllocsPerRun is meaningless there.
const raceEnabled = false
