//go:build race

package check_test

// raceEnabled reports a -race build, whose shadow memory makes the
// deepest stacks too costly to test.
const raceEnabled = true
