package main

import (
	"bytes"
	"testing"
)

// TestFixture pins the exact report over testdata/fixture, a module with
// one declaration per reachability case: a dead func and the helper only
// it calls, a String method reached through fmt.Stringer, a func only
// another package's test calls, with and without a keep line, and a lone
// Len method of a reached type that satisfies no interface. Its
// lib.Options holds one knob per field-pass case, and only the first
// three are reported: a knob nothing writes, one forwarded only from
// that unset knob, one only a test writes, one a program writes, one
// copied from a main package's flag-backed field, and a kept one.
func TestFixture(t *testing.T) {
	var out bytes.Buffer
	n, err := run("testdata/fixture", &out)
	if err != nil {
		t.Fatal(err)
	}
	want := "internal/lib/lib.go:12 Dead\n" +
		"internal/lib/lib.go:15 helper\n" +
		"internal/lib/lib.go:18 TestOnly\n" +
		"internal/lib/lib.go:28 Options.Unset\n" +
		"internal/lib/lib.go:30 Options.Forwarded\n" +
		"internal/lib/lib.go:32 Options.TestSet\n" +
		"internal/lib/lib.go:48 Sized.Len\n"
	if got := out.String(); got != want {
		t.Errorf("report:\n%s\nwant:\n%s", got, want)
	}
	if n != 7 {
		t.Errorf("count = %d, want 7", n)
	}
}
