//go:build race

package server

// raceEnabled reports a -race build, whose sync.Pool drops items at
// random and so makes allocation counts vary from run to run.
const raceEnabled = true
