package experiments

import (
	"strings"
	"testing"

	"magicstate/internal/protocols"
)

func TestStylesExperiment(t *testing.T) {
	rows, err := StylesExperiment(2, 1, []int{5, 10, 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want 3 distances x 3 styles", len(rows))
	}
	byKey := func(style string, d int) *StyleRow {
		for i := range rows {
			if rows[i].Style == style && rows[i].Distance == d {
				return &rows[i]
			}
		}
		t.Fatalf("missing row %s d=%d", style, d)
		return nil
	}
	// Braiding is distance-insensitive.
	if a, b := byKey("braiding", 5).Latency, byKey("braiding", 20).Latency; a != b {
		t.Errorf("braiding latency varies with distance: %d vs %d", a, b)
	}
	// Surgery latency grows with distance.
	if a, b := byKey("lattice-surgery", 5).Latency, byKey("lattice-surgery", 20).Latency; b <= a {
		t.Errorf("surgery latency did not grow: d=5 %d, d=20 %d", a, b)
	}
	// At small d, surgery beats braiding; at large d, braiding wins —
	// the crossover the §IX study is after.
	if byKey("lattice-surgery", 5).Latency >= byKey("braiding", 5).Latency {
		t.Error("surgery not faster than braiding at d=5")
	}
	if byKey("lattice-surgery", 20).Latency <= byKey("braiding", 20).Latency {
		t.Error("surgery not slower than braiding at d=20")
	}
	var sb strings.Builder
	WriteStyles(&sb, 2, 1, rows)
	if !strings.Contains(sb.String(), "lattice-surgery") {
		t.Error("rendered table missing style row")
	}
}

func TestStylesExperimentRejectsBadDistance(t *testing.T) {
	if _, err := StylesExperiment(2, 1, []int{0}); err == nil {
		t.Error("d=0 accepted")
	}
}

func TestAreaExpansion(t *testing.T) {
	rows, err := AreaExpansion(2, 1, []float64{1, 1.5, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	for i, r := range rows {
		if r.Latency <= 0 || r.HullArea <= 0 {
			t.Errorf("row %d: degenerate latency %d / hull %d", i, r.Latency, r.HullArea)
		}
		if i > 0 && r.W < rows[i-1].W {
			t.Errorf("grid shrank between factors: %d < %d", r.W, rows[i-1].W)
		}
	}
	var sb strings.Builder
	WriteAreaExpansion(&sb, 2, 1, rows)
	if !strings.Contains(sb.String(), "hull volume") {
		t.Error("rendered table missing header")
	}
}

func TestAreaExpansionRejectsShrinking(t *testing.T) {
	if _, err := AreaExpansion(2, 1, []float64{0.5}, 1); err == nil {
		t.Error("factor < 1 accepted")
	}
}

func TestProtocolComparisonTable(t *testing.T) {
	rows := ProtocolComparison(1e-3, 1e-10)
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	ok := 0
	for _, r := range rows {
		if r.Err == "" {
			ok++
			if r.OutputError > 1e-10 {
				t.Errorf("%s: output error %g above target", r.Name, r.OutputError)
			}
		}
	}
	if ok == 0 {
		t.Error("no protocol met the target")
	}
	var sb strings.Builder
	WriteProtocols(&sb, 1e-3, 1e-10, rows)
	if !strings.Contains(sb.String(), "BH 14-to-2") {
		t.Error("rendered table missing Bravyi-Haah row")
	}
}

func TestYieldExperiment(t *testing.T) {
	rows, err := Yield([]int{2, 4}, 2, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		if diff := r.AnalyticFullYield - r.SampledFullYield; diff > 0.05 || diff < -0.05 {
			t.Errorf("K=%d: sampled %g far from analytic %g", r.K, r.SampledFullYield, r.AnalyticFullYield)
		}
		if r.ReserveFullYield < r.SampledFullYield-0.03 {
			t.Errorf("K=%d: reserve hurt yield: %g < %g", r.K, r.ReserveFullYield, r.SampledFullYield)
		}
		if r.CheckpointMeanOutputs > r.MeanOutputs+0.2 {
			t.Errorf("K=%d: checkpoints increased mean outputs", r.K)
		}
	}
	var sb strings.Builder
	WriteYield(&sb, 2, 2000, rows)
	if !strings.Contains(sb.String(), "analytic full") {
		t.Error("rendered table missing header")
	}
}

func TestStitchGeneralization(t *testing.T) {
	rows, err := StitchGeneralization(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 workloads", len(rows))
	}
	byName := map[string]StitchGenRow{}
	for _, r := range rows {
		if r.GlobalLatency <= 0 || r.StitchedLatency <= 0 {
			t.Errorf("%s: degenerate latencies %d/%d", r.Workload, r.GlobalLatency, r.StitchedLatency)
		}
		byName[r.Workload] = r
	}
	// Shape assertions for the §IX study: stitching wins clearly on the
	// sequential all-pairs QFT, helps on the phase-shuffled hierarchy,
	// and costs at most noise on workloads a global embedding already
	// handles.
	if byName["qft-16"].Gain < 1.05 {
		t.Errorf("qft gain = %.2f, want > 1.05", byName["qft-16"].Gain)
	}
	if byName["hier-shuffled"].Gain < 0.98 {
		t.Errorf("shuffled gain = %.2f, want >= ~1", byName["hier-shuffled"].Gain)
	}
	if byName["hier-static"].Gain < 0.9 || byName["adder-10bit"].Gain < 0.9 {
		t.Errorf("static controls degraded: static %.2f adder %.2f",
			byName["hier-static"].Gain, byName["adder-10bit"].Gain)
	}
	var sb strings.Builder
	WriteStitchGen(&sb, rows)
	if !strings.Contains(sb.String(), "hier-shuffled") {
		t.Error("rendered table missing workload")
	}
}

func TestSchedReorder(t *testing.T) {
	rows, err := SchedReorder(2, []int{4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		if r.ProgramLatency <= 0 || r.SiftedLatency <= 0 {
			t.Errorf("cap %d: degenerate latencies", r.Capacity)
		}
		// §V.A: barriers bound mobility — sifting must not change the
		// dependency bound by more than a few percent in either
		// direction, and realized latency stays in the same regime.
		db := float64(r.CriticalSifted) / float64(r.CriticalProgram)
		if db < 0.9 || db > 1.1 {
			t.Errorf("cap %d: sifting moved the bound by %0.2fx", r.Capacity, db)
		}
		dl := float64(r.SiftedLatency) / float64(r.ProgramLatency)
		if dl < 0.5 || dl > 2 {
			t.Errorf("cap %d: sifting changed latency by %0.2fx", r.Capacity, dl)
		}
	}
	var sb strings.Builder
	WriteSchedReorder(&sb, 2, rows)
	if !strings.Contains(sb.String(), "sifted") {
		t.Error("rendered table missing header")
	}
}

func TestThreeLevel(t *testing.T) {
	rows, err := ThreeLevel(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 strategies", len(rows))
	}
	vol := map[string]float64{}
	for _, r := range rows {
		if r.Latency <= 0 || r.Volume <= 0 {
			t.Errorf("%s: degenerate row %+v", r.Strategy, r)
		}
		if r.Latency < r.Critical {
			t.Errorf("%s: latency %d below bound %d", r.Strategy, r.Latency, r.Critical)
		}
		vol[r.Strategy] = r.Volume
	}
	// The paper's ordering must sharpen with depth: HS < GP < Line.
	if !(vol["HS"] < vol["GP"] && vol["GP"] < vol["Line"]) {
		t.Errorf("three-level ordering broken: HS %.3g, GP %.3g, Line %.3g",
			vol["HS"], vol["GP"], vol["Line"])
	}
	var sb strings.Builder
	WriteThreeLevel(&sb, 2, rows)
	if !strings.Contains(sb.String(), "volume ratio") {
		t.Error("rendered table missing ratio line")
	}
}

func TestBK15Mapping(t *testing.T) {
	if err := protocols.Circuit15to1().Validate(); err != nil {
		t.Fatal(err)
	}
	rows, err := BK15Mapping(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 strategies", len(rows))
	}
	vol := map[string]float64{}
	for _, r := range rows {
		if r.Latency < r.Critical {
			t.Errorf("%s: latency %d below bound %d", r.Strategy, r.Latency, r.Critical)
		}
		vol[r.Strategy] = r.Volume
	}
	// The optimizing mappers must beat random placement on this protocol
	// too — the robustness claim of the experiment.
	if vol["FD"] > vol["Random"] || vol["GP"] > vol["Random"] {
		t.Errorf("mappers lost to random: FD %.3g GP %.3g Random %.3g",
			vol["FD"], vol["GP"], vol["Random"])
	}
	var sb strings.Builder
	WriteBK15(&sb, rows)
	if !strings.Contains(sb.String(), "15-to-1") {
		t.Error("rendered table missing title")
	}
}

func TestStylesByStrategy(t *testing.T) {
	rows, err := StylesByStrategy(2, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want 3 strategies x 3 styles", len(rows))
	}
	cell := func(strat, style string) StyleStrategyRow {
		for _, r := range rows {
			if r.Strategy == strat && r.Style == style {
				return r
			}
		}
		t.Fatalf("missing cell %s/%s", strat, style)
		return StyleStrategyRow{}
	}
	// The §IX hypothesis: teleportation relieves congestion, so its
	// advantage over full-hold styles is largest on the congested linear
	// mapping and smaller (relatively) on the stitched mapping.
	lineGain := float64(cell("Line", "lattice-surgery").Latency) /
		float64(cell("Line", "teleportation").Latency)
	hsGain := float64(cell("HS", "lattice-surgery").Latency) /
		float64(cell("HS", "teleportation").Latency)
	if lineGain < hsGain {
		t.Errorf("teleportation gain did not shrink under stitching: Line %.2f, HS %.2f",
			lineGain, hsGain)
	}
	// Every cell simulated.
	for _, r := range rows {
		if r.Latency <= 0 {
			t.Errorf("%s/%s: zero latency", r.Strategy, r.Style)
		}
	}
	var sb strings.Builder
	WriteStylesByStrategy(&sb, 2, 7, rows)
	if !strings.Contains(sb.String(), "strategy\\style") {
		t.Error("rendered matrix missing header")
	}
}

func TestStylesByStrategyRejectsBadDistance(t *testing.T) {
	if _, err := StylesByStrategy(2, 0, 1); err == nil {
		t.Error("d=0 accepted")
	}
}
