package mesh

import (
	"math/rand"
	"strings"
	"testing"

	"magicstate/internal/bravyi"
	"magicstate/internal/layout"
)

func recordedRun(t testing.TB) (*Result, *layout.Placement) {
	t.Helper()
	f, err := bravyi.Build(bravyi.Params{K: 2, Levels: 1})
	if err != nil {
		t.Fatal(err)
	}
	pl := layout.Random(f.Circuit.NumQubits, rand.New(rand.NewSource(4)))
	res, err := Simulate(f.Circuit, pl, Config{RecordPaths: true})
	if err != nil {
		t.Fatal(err)
	}
	return res, pl
}

func TestCongestionMapRequiresRecordedPaths(t *testing.T) {
	_, pl := recordedRun(t)
	if _, _, err := CongestionMap(&Result{}, pl); err == nil {
		t.Error("unrecorded run accepted")
	}
}

func TestCongestionMapAccumulates(t *testing.T) {
	res, pl := recordedRun(t)
	heat, lat, err := CongestionMap(res, pl)
	if err != nil {
		t.Fatal(err)
	}
	if len(heat) != lat.Cells() {
		t.Fatalf("heat covers %d cells, lattice has %d", len(heat), lat.Cells())
	}
	// Total heat equals sum over braids of pathlen x held cycles.
	want := 0
	for gi, path := range res.Paths {
		if len(path) == 0 {
			continue
		}
		want += len(path) * (res.End[gi] - res.Start[gi])
	}
	got := 0
	for _, h := range heat {
		got += h
	}
	if got != want {
		t.Errorf("total heat %d, want %d", got, want)
	}
	if got == 0 {
		t.Error("no congestion recorded for a braid-heavy circuit")
	}
}

func TestRenderCongestion(t *testing.T) {
	res, pl := recordedRun(t)
	heat, lat, err := CongestionMap(res, pl)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderCongestion(heat, lat, 0, 0)
	if !strings.Contains(out, "#") {
		t.Error("no tiles rendered")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != lat.CH {
		t.Errorf("rendered %d rows, lattice has %d", len(lines), lat.CH)
	}
	for _, ln := range lines {
		if len(ln) != lat.CW {
			t.Fatalf("row width %d, want %d", len(ln), lat.CW)
		}
		for _, ch := range ln {
			if ch != '#' && ch != '.' && (ch < '1' || ch > '9') {
				t.Fatalf("unexpected rune %q in render", ch)
			}
		}
	}
	// Clipping annotates.
	clipped := RenderCongestion(heat, lat, 3, 3)
	if !strings.Contains(clipped, "clipped") {
		t.Error("clipped render missing note")
	}
}

func TestSimulateRouteModes(t *testing.T) {
	f, err := bravyi.Build(bravyi.Params{K: 4, Levels: 1})
	if err != nil {
		t.Fatal(err)
	}
	pl := layout.Random(f.Circuit.NumQubits, rand.New(rand.NewSource(11)))
	latencies := map[RouteMode]int{}
	for _, mode := range []RouteMode{RouteXY, RouteBox, RouteAdaptive} {
		res, err := Simulate(f.Circuit, pl, Config{Mode: mode, RecordPaths: true})
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if err := res.CheckNoOverlaps(); err != nil {
			t.Errorf("mode %d: %v", mode, err)
		}
		latencies[mode] = res.Latency
		if v := res.Volume(); v.SpaceTime() != float64(res.Area)*float64(res.Latency) {
			t.Errorf("mode %d: Volume inconsistent", mode)
		}
	}
	// Detouring routers relieve congestion: adaptive must not be slower
	// than the strict XY braids on a random (congested) placement.
	if latencies[RouteAdaptive] > latencies[RouteXY] {
		t.Errorf("adaptive %d slower than XY %d", latencies[RouteAdaptive], latencies[RouteXY])
	}
}
