package main

import (
	"bytes"
	"testing"
)

// TestFixture pins the exact report over testdata/fixture, a module with
// one declaration per reachability case: a dead func and the helper only
// it calls, a String method reached through fmt.Stringer, a func only
// another package's test calls, with and without a keep line.
func TestFixture(t *testing.T) {
	var out bytes.Buffer
	n, err := run("testdata/fixture", &out)
	if err != nil {
		t.Fatal(err)
	}
	want := "internal/lib/lib.go:12 Dead\n" +
		"internal/lib/lib.go:15 helper\n" +
		"internal/lib/lib.go:18 TestOnly\n"
	if got := out.String(); got != want {
		t.Errorf("report:\n%s\nwant:\n%s", got, want)
	}
	if n != 3 {
		t.Errorf("count = %d, want 3", n)
	}
}
