//go:build !race

package rchannel

// See race_on_test.go.
const raceEnabled = false
