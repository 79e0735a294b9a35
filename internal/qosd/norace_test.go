//go:build !race

package qosd

// raceEnabled reports a build with the race detector; see race_test.go.
const raceEnabled = false
