//go:build race

package szx

// raceEnabled reports a -race build, where sync.Pool drops puts at random
// and allocation counts of pooled paths stop being repeatable.
const raceEnabled = true
