//go:build !race

package xmlstream_test

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
