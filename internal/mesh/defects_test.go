package mesh

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"magicstate/internal/circuit"
	"magicstate/internal/layout"
	"magicstate/internal/resource"
)

// defectRowCircuit builds n qubits on row 0 of a (2n-1) x 2 tile grid,
// qubit q on tile (2q, 0), with a CNOT from qubit 0 to the last qubit.
// The braid must cross the odd columns of row 0, which is where the
// tests plant defects — the defective tiles stay unoccupied, and a
// defect's full-height dead column in row 0 leaves a detour through the
// spare row below (on a 1-row mesh a defect severs the fabric outright,
// which is why relocation grows exact-fit grids by rows).
func defectRowCircuit(n int) (*circuit.Circuit, *layout.Placement) {
	c := circuit.New(n)
	for q := 0; q < n; q++ {
		c.PrepZ(circuit.Qubit(q))
	}
	c.CNOT(0, circuit.Qubit(n-1))
	for q := 0; q < n; q++ {
		c.MeasZ(circuit.Qubit(q))
	}
	p := layout.NewPlacement(n, 2*n-1, 2)
	for q := 0; q < n; q++ {
		p.Pos[q] = layout.Point{X: 2 * q, Y: 0}
	}
	return c, p
}

// TestDefectDetour is the regression for the dimension-ordered router
// on a severed row: with tile (1,0) defective, both the XY and YX
// rectilinear candidates between (0,0) and (2,0) cross dead cells and
// no reservation will ever clear them. The braid must fall back to a
// shortest detour around the dead region instead of deadlocking.
func TestDefectDetour(t *testing.T) {
	c, p := defectRowCircuit(3)
	pristine, err := Simulate(c, p, Config{RecordPaths: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(c, p, Config{Defects: "1,0", RecordPaths: true})
	if err != nil {
		t.Fatalf("defective mesh deadlocked: %v", err)
	}
	// Braid duration is path-length independent, so latency alone cannot
	// witness the detour; the reserved cells can. Find the CNOT's braid
	// and check it rerouted off the straight-line path.
	cnot := -1
	for gi, g := range c.Gates {
		if g.Kind == circuit.KindCNOT {
			cnot = gi
		}
	}
	if cnot < 0 || len(res.Paths[cnot]) == 0 {
		t.Fatal("CNOT braid path not recorded")
	}
	if reflect.DeepEqual(res.Paths[cnot], pristine.Paths[cnot]) {
		t.Fatal("braid took the pristine path across a defect region")
	}
	if err := res.CheckNoOverlaps(); err != nil {
		t.Fatal(err)
	}
}

// TestDefectPathsAvoidDeadCells audits the recorded braid paths: no
// reserved cell may lie in a defect region.
func TestDefectPathsAvoidDeadCells(t *testing.T) {
	const defects = "1,0;3,0"
	c, p := defectRowCircuit(5)
	res, err := Simulate(c, p, Config{Defects: defects, RecordPaths: true})
	if err != nil {
		t.Fatal(err)
	}
	dm, err := layout.ParseDefects(defects)
	if err != nil {
		t.Fatal(err)
	}
	lat := NewLatticeDefective(p.W, p.H, dm)
	braids := 0
	for gi, path := range res.Paths {
		for _, ci := range path {
			if lat.dead[ci] {
				t.Fatalf("gate %d reserved dead cell %d", gi, ci)
			}
		}
		if len(path) > 0 {
			braids++
		}
	}
	if braids == 0 {
		t.Fatal("no braid paths recorded — the audit checked nothing")
	}
}

// TestDefectiveTileRejectsQubit pins the placement validation: a qubit
// sitting on a defective tile is a config error, not a silent crash.
func TestDefectiveTileRejectsQubit(t *testing.T) {
	c, p := defectRowCircuit(3)
	_, err := Simulate(c, p, Config{Defects: "0,0"})
	if err == nil {
		t.Fatal("placement on a defective tile accepted")
	}
	if !strings.Contains(err.Error(), "defective") {
		t.Fatalf("error %q does not mention the defective tile", err)
	}
}

// TestDefectDeterminism pins reproducibility: the same circuit,
// placement and defect map yield byte-identical schedules run to run.
func TestDefectDeterminism(t *testing.T) {
	c, p := defectRowCircuit(5)
	cfg := Config{Defects: "1,0;3,0", RecordPaths: true}
	a, err := Simulate(c, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(c, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Latency != b.Latency || a.Stalls != b.Stalls {
		t.Fatalf("latency/stalls differ run to run: %d/%d vs %d/%d", a.Latency, a.Stalls, b.Latency, b.Stalls)
	}
	if !reflect.DeepEqual(a.Start, b.Start) || !reflect.DeepEqual(a.End, b.End) {
		t.Fatal("per-gate schedules differ run to run")
	}
	if !reflect.DeepEqual(a.Paths, b.Paths) {
		t.Fatal("braid paths differ run to run")
	}
}

// TestDefectOutsideGridIgnored: defect entries beyond the tile grid are
// inert (the codec allows naming them; the lattice ignores them).
func TestDefectOutsideGridIgnored(t *testing.T) {
	c, p := defectRowCircuit(3)
	pristine, err := Simulate(c, p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(c, p, Config{Defects: "9,9"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency != pristine.Latency {
		t.Fatalf("out-of-grid defect changed latency: %d vs %d", res.Latency, pristine.Latency)
	}
}

// TestDeadlockNamesFirstStuckGate walls in the centre tile of a 3x3
// grid: its four neighbours are defective, so the centre has no live
// port and a CNOT from it can never route. Every routing mode must
// report the deadlock naming that gate, its qubits and its tiles.
func TestDeadlockNamesFirstStuckGate(t *testing.T) {
	c := circuit.New(2)
	c.H(1)
	c.CNOT(0, 1)
	c.MeasZ(0)
	p := layout.NewPlacement(2, 3, 3)
	p.Set(0, layout.Point{X: 1, Y: 1})
	p.Set(1, layout.Point{X: 0, Y: 0})
	want := fmt.Sprintf("mesh: deadlock at cycle %d: 1 gates stuck, none running; first is gate 1 (CNOT q0→q1, tiles (1,1)→(0,0))",
		resource.DefaultCost().H)
	for _, mode := range []RouteMode{RouteXY, RouteBox, RouteAdaptive} {
		_, err := Simulate(c, p, Config{Mode: mode, Defects: "1,0;0,1;2,1;1,2"})
		if err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %q", mode.name(), err, want)
		}
	}
}
