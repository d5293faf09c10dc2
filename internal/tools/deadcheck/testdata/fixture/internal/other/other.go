// Package other is live and has tests that reach into lib.
package other

// Twice doubles x.
func Twice(x int) int { return 2 * x }
