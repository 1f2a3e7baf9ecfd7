//go:build !race

package service

// raceEnabled reports whether the test binary runs under the race
// detector, which inflates every allocation its memory tests measure.
const raceEnabled = false
