//go:build !race

package fmmfam

// raceEnabled reports a -race build (race_on_test.go).
const raceEnabled = false
