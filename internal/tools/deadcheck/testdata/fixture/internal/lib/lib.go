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

// Options holds one knob per field-pass case.
type Options struct {
	// Unset is written by no program.
	Unset int
	// Forwarded is written only with Unset's value.
	Forwarded int
	// TestSet is written only by a test.
	TestSet int
	// Set is written by a program.
	Set int
	// FromFlag is copied from a program's flag-backed field.
	FromFlag int
	// KeptKnob is written only by a test, which needs it.
	//
	//deadcheck:keep other's TestUsesKept
	KeptKnob int
}

// Sized is reached from main, but no interface it satisfies declares
// Len, so Len is dead though imported interfaces declare a Len.
type Sized struct{}

// Len only shares its name with an interface method.
func (Sized) Len() int { return 0 }
