// Package other is live and has tests that reach into lib.
package other

import "fixture/internal/lib"

// Twice doubles x.
func Twice(x int) int { return 2 * x }

// Derive forwards o's Unset knob and sets Set.
func Derive(o lib.Options) lib.Options { return lib.Options{Forwarded: o.Unset, Set: 1} }
