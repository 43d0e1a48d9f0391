//go:build !race

package client_test

// raceEnabled gates allocation-count assertions: testing.AllocsPerRun is
// unreliable under the race detector (instrumentation allocates).
const raceEnabled = false
