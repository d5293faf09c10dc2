package other

import (
	"testing"

	"fixture/internal/lib"
)

func TestUsesKept(t *testing.T) {
	if lib.TestOnly()+lib.Kept() != 5 {
		t.Fatal("lib changed")
	}
	if o := (lib.Options{TestSet: 1, KeptKnob: 2}); o.TestSet+o.KeptKnob != 3 {
		t.Fatal("lib.Options changed")
	}
}
