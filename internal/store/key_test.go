package store

import (
	"reflect"
	"testing"

	"magicstate/internal/core"
	"magicstate/internal/force"
)

// TestKeyOfPinnedDigest pins the report key, the one every pipeline
// point is answered under, beside TestStageKeyPinnedDigests' upstream
// pins: a silent change would orphan every report in every existing
// store. Produced by stageKeyFormatVersion 4 (a report is keyed by its
// sim scope under the "report" stage header); if the encoding or the
// scope must change, bump the version and re-pin.
func TestKeyOfPinnedDigest(t *testing.T) {
	const want = "8a6e86180c1faf5f87caa2b87180342366cadc020e477f3ca08efb082137e269"
	got := StageKeyOf(core.StageReport, core.Config{K: 4, Levels: 2, Reuse: true, Strategy: core.StrategyStitch, Seed: 7}).String()
	if got != want {
		t.Fatalf("report key digest drifted:\n got %s\nwant %s\n(bump stageKeyFormatVersion if the encoding changed on purpose)", got, want)
	}
}

// TestKeyOfDistinguishesEveryField: the canonical encoder writes every
// field, so no two configs that differ in one field share a digest.
// Which fields an artifact depends on is the scope's decision
// (core.Stage.Scope), never the encoder's.
func TestKeyOfDistinguishesEveryField(t *testing.T) {
	base := core.Config{K: 4, Levels: 2, Seed: 1}
	mutations := map[string]core.Config{}
	add := func(name string, mutate func(*core.Config)) {
		c := base
		mutate(&c)
		mutations[name] = c
	}
	add("K", func(c *core.Config) { c.K = 6 })
	add("Levels", func(c *core.Config) { c.Levels = 1 })
	add("Reuse", func(c *core.Config) { c.Reuse = true })
	add("NoBarriers", func(c *core.Config) { c.NoBarriers = true })
	add("Strategy", func(c *core.Config) { c.Strategy = core.StrategyForceDirected })
	add("Seed", func(c *core.Config) { c.Seed = 2 })
	add("MeshMode", func(c *core.Config) { c.MeshMode = 1 })
	add("Style", func(c *core.Config) { c.Style = 1 })
	add("Distance", func(c *core.Config) { c.Distance = 11 })
	add("RecordPaths", func(c *core.Config) { c.RecordPaths = true })
	add("FD", func(c *core.Config) { c.FD = force.Options{Iterations: 9} })
	add("FD.MarginRows", func(c *core.Config) { c.FD.MarginRows = 2 })
	add("FD.RestartWorkers", func(c *core.Config) { c.FD.RestartWorkers = 8 })
	add("Workload", func(c *core.Config) { c.Workload = "random" })
	add("WorkloadSource", func(c *core.Config) { c.WorkloadSource = "q=8;layers=2" })
	add("Defects", func(c *core.Config) { c.Defects = "1,1" })

	const header = "test\n"
	seen := map[Key]string{digest(header, base): "base"}
	for name, cfg := range mutations {
		k := digest(header, cfg)
		if prev, dup := seen[k]; dup {
			t.Errorf("mutating %s collides with %s", name, prev)
		}
		seen[k] = name
	}

	// A report is keyed by its sim scope, so fields no stage reads —
	// Linear's seed, the path diagnostics, the annealer's unread worker
	// count — leave the report key alone.
	line := core.Config{K: 4, Levels: 2, Strategy: core.StrategyLinear, Seed: 1}
	out := line
	out.Seed, out.RecordPaths, out.FD = 2, true, force.Options{Iterations: 9, RestartWorkers: 8}
	if StageKeyOf(core.StageReport, out) != StageKeyOf(core.StageReport, line) {
		t.Error("the report key changed with fields outside Linear's sim scope")
	}
}

// TestKeyGuardsConfigFields pins the exact field sets of core.Config
// and its nested option structs. If this test fails, a field was added
// (or renamed) without teaching the encoder about it — extend digest in
// key.go, classify the field in core.Stage.Scope, bump
// stageKeyFormatVersion, and update the lists here. Skipping that step would make
// the store serve stale results for configs that differ only in the
// new field.
func TestKeyGuardsConfigFields(t *testing.T) {
	check := func(v any, want []string) {
		t.Helper()
		rt := reflect.TypeOf(v)
		var got []string
		for i := 0; i < rt.NumField(); i++ {
			got = append(got, rt.Field(i).Name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s fields = %v, want %v — update digest and the key format version", rt, got, want)
		}
	}
	check(core.Config{}, []string{
		"K", "Levels", "Reuse", "NoBarriers", "Strategy", "Seed",
		"MeshMode", "Style", "Distance", "RecordPaths", "FD",
		"Workload", "WorkloadSource", "Defects",
	})
	check(force.Options{}, []string{
		"Iterations", "Seed", "MarginRows", "DisableDipole", "DisableCommunity",
		"RestartWorkers",
	})
}
