package stitch

import (
	"runtime"
	"testing"

	"magicstate/internal/bravyi"
)

// TestBuildDeterministicAcrossWorkerWidths pins the speculative parallel
// counting phase of the hop annealer to the serial result: the annealer
// sizes its worker pool from GOMAXPROCS, so forcing different widths must
// still yield byte-identical circuits and placements (speculation only
// precomputes conflict counts; the resolve pass replays the serial
// decision order). The -race run of this test doubles as the data-race
// check for the worker pool, which a 1-CPU default would never spin up.
func TestBuildDeterministicAcrossWorkerWidths(t *testing.T) {
	p := bravyi.Params{K: 6, Levels: 2}
	opt := Options{Seed: 7, Reuse: true, Hops: AnnealedMidpointHop}

	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	serial, err := Build(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if serial.HopWires == 0 {
		t.Fatal("test factory routed no hop wires; annealer not exercised")
	}
	serialCirc := serial.Factory.Circuit.String()

	for _, width := range []int{2, 4} {
		runtime.GOMAXPROCS(width)
		par, err := Build(p, opt)
		if err != nil {
			t.Fatal(err)
		}
		if par.HopWires != serial.HopWires {
			t.Fatalf("width %d: HopWires %d != serial %d", width, par.HopWires, serial.HopWires)
		}
		for q := range serial.Placement.Pos {
			if par.Placement.Pos[q] != serial.Placement.Pos[q] {
				t.Fatalf("width %d: qubit %d placed at %v, want %v",
					width, q, par.Placement.Pos[q], serial.Placement.Pos[q])
			}
		}
		if got := par.Factory.Circuit.String(); got != serialCirc {
			t.Fatalf("width %d: hopped circuit diverged from serial build", width)
		}
	}
}
