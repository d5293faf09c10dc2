// Package lib holds one declaration per reachability case.
package lib

// Live is reached from main; its String method is reached only through
// fmt.Stringer.
type Live struct{}

// String implements fmt.Stringer.
func (Live) String() string { return "live" }

// Dead has no caller.
func Dead() int { return helper() }

// helper is called only by Dead.
func helper() int { return 1 }

// TestOnly is called only by another package's test.
func TestOnly() int { return 2 }

// Kept is called only by another package's test, which needs it.
//
//deadcheck:keep other's TestUsesKept
func Kept() int { return 3 }
