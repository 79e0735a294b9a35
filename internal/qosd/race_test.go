//go:build race

package qosd

// raceEnabled reports a build with the race detector, under which
// sync.Pool drops a share of its Puts on purpose, so pooled buffers are
// not reused on every request.
const raceEnabled = true
