package other

import (
	"testing"

	"fixture/internal/lib"
)

func TestUsesKept(t *testing.T) {
	if lib.TestOnly()+lib.Kept() != 5 {
		t.Fatal("lib changed")
	}
}
