//go:build race

package rchannel

// raceEnabled: the race detector makes sync.Pool drop items at random, so
// pooled paths allocate and allocation budgets do not hold.
const raceEnabled = true
