package store

import (
	"reflect"
	"testing"

	"magicstate/internal/core"
	"magicstate/internal/force"
)

// stageKeySet is the three stage keys of one config, for compact
// change-matrix assertions.
type stageKeySet struct{ build, place, sim Key }

func keysOf(cfg core.Config) stageKeySet {
	return stageKeySet{
		build: StageKeyOf(core.StageBuild, cfg),
		place: StageKeyOf(core.StagePlace, cfg),
		sim:   StageKeyOf(core.StageSim, cfg),
	}
}

// diff reports which stage keys changed between two configs as a
// compact string like "build+place+sim" ("" when nothing moved).
func (a stageKeySet) diff(b stageKeySet) string {
	out := ""
	app := func(s string) {
		if out != "" {
			out += "+"
		}
		out += s
	}
	if a.build != b.build {
		app("build")
	}
	if a.place != b.place {
		app("place")
	}
	if a.sim != b.sim {
		app("sim")
	}
	return out
}

// TestStageKeyScopes pins the scope matrix field by field: for each
// strategy, mutating a Config field must move exactly the keys of the
// stages that consume it. A mutation moving too few keys would serve a
// stale artifact; too many would fracture sharing the tier exists for.
func TestStageKeyScopes(t *testing.T) {
	type mutation struct {
		name   string
		mutate func(*core.Config)
		want   string // stages whose keys must change, "" for none
	}
	run := func(t *testing.T, base core.Config, muts []mutation) {
		t.Helper()
		baseKeys := keysOf(base)
		for _, m := range muts {
			cfg := base
			m.mutate(&cfg)
			if got := baseKeys.diff(keysOf(cfg)); got != m.want {
				t.Errorf("%s: changed stages %q, want %q", m.name, got, m.want)
			}
		}
	}

	// Upstream structure axes move everything; downstream axes cascade
	// forward only; diagnostics and throughput knobs move nothing.
	common := []mutation{
		{"K", func(c *core.Config) { c.K = 6 }, "build+place+sim"},
		{"Levels", func(c *core.Config) { c.Levels = 1 }, "build+place+sim"},
		{"Reuse", func(c *core.Config) { c.Reuse = true }, "build+place+sim"},
		{"NoBarriers", func(c *core.Config) { c.NoBarriers = true }, "build+place+sim"},
		// A frontend workload determines the circuit itself, so it scopes
		// every stage regardless of strategy.
		{"Workload", func(c *core.Config) { c.Workload = "random" }, "build+place+sim"},
		{"WorkloadSource", func(c *core.Config) { c.WorkloadSource = "q=8;layers=2" }, "build+place+sim"},
		// The defect map never reaches the build (the factory circuit is
		// mesh-independent) but every mapper relocates around it.
		{"Defects", func(c *core.Config) { c.Defects = "1,1" }, "place+sim"},
		{"RecordPaths", func(c *core.Config) { c.RecordPaths = true }, ""},
		{"FD.RestartWorkers", func(c *core.Config) { c.FD.RestartWorkers = 8 }, ""},
		// A random workload draws its circuit from Seed, so the seed
		// reaches the build under every strategy.
		{"random-workload Seed", func(c *core.Config) {
			c.Workload, c.WorkloadSource, c.Seed = "random", "q=8;layers=2", c.Seed+1
		}, "build+place+sim"},
	}

	t.Run("linear", func(t *testing.T) {
		base := core.Config{K: 4, Levels: 2, Strategy: core.StrategyLinear, Seed: 1}
		run(t, base, append([]mutation{
			// Linear is deterministic from the factory: no seed, no FD
			// knobs, and the simulator config only reaches the sim stage.
			{"Seed", func(c *core.Config) { c.Seed = 2 }, ""},
			{"Strategy", func(c *core.Config) { c.Strategy = core.StrategyRandom }, "place+sim"},
			{"MeshMode", func(c *core.Config) { c.MeshMode = 1 }, "sim"},
			{"Style", func(c *core.Config) { c.Style = 1 }, "sim"},
			{"Distance", func(c *core.Config) { c.Distance = 11 }, "sim"},
			{"FD", func(c *core.Config) { c.FD = force.Options{Iterations: 9} }, ""},
		}, common...))
	})

	t.Run("random", func(t *testing.T) {
		base := core.Config{K: 4, Levels: 2, Strategy: core.StrategyRandom, Seed: 1}
		run(t, base, append([]mutation{
			{"Seed", func(c *core.Config) { c.Seed = 2 }, "place+sim"},
			{"Style", func(c *core.Config) { c.Style = 1 }, "sim"},
			{"FD", func(c *core.Config) { c.FD = force.Options{Iterations: 9} }, ""},
		}, common...))
	})

	t.Run("gp", func(t *testing.T) {
		base := core.Config{K: 4, Levels: 2, Strategy: core.StrategyGraphPartition, Seed: 1}
		run(t, base, append([]mutation{
			{"Seed", func(c *core.Config) { c.Seed = 2 }, "place+sim"},
			{"MeshMode", func(c *core.Config) { c.MeshMode = 1 }, "sim"},
		}, common...))
	})

	t.Run("fd", func(t *testing.T) {
		base := core.Config{K: 4, Levels: 2, Strategy: core.StrategyForceDirected, Seed: 1}
		run(t, base, append([]mutation{
			{"Seed", func(c *core.Config) { c.Seed = 2 }, "place+sim"},
			{"FD.Iterations", func(c *core.Config) { c.FD.Iterations = 9 }, "place+sim"},
			// The annealer is seeded from Seed; FD.Seed is never read.
			{"FD.Seed", func(c *core.Config) { c.FD.Seed = 9 }, ""},
			// FD scores candidates in simulation, so the simulator's
			// configuration reaches the placement key too.
			{"MeshMode", func(c *core.Config) { c.MeshMode = 1 }, "place+sim"},
			{"Style", func(c *core.Config) { c.Style = 1 }, "place+sim"},
			{"Distance", func(c *core.Config) { c.Distance = 11 }, "place+sim"},
		}, common...))
	})

	t.Run("stitch", func(t *testing.T) {
		base := core.Config{K: 4, Levels: 2, Strategy: core.StrategyStitch, Seed: 1}
		run(t, base, append([]mutation{
			// Stitching fuses building and placing into one seeded
			// optimization: the seed reaches the build.
			{"Seed", func(c *core.Config) { c.Seed = 2 }, "build+place+sim"},
			{"MeshMode", func(c *core.Config) { c.MeshMode = 1 }, "sim"},
			{"Style", func(c *core.Config) { c.Style = 1 }, "sim"},
			{"FD", func(c *core.Config) { c.FD = force.Options{Iterations: 9} }, ""},
		}, common...))
	})
}

// TestStageKeysNeverAliasAcrossStagesOrFinals: the same config's keys
// for different stages — its report key included — must all be
// distinct, or a lookup could replay the wrong kind of record. The
// header names the stage, so equal scopes under two stages (sim and
// report) still get two keys.
func TestStageKeysNeverAliasAcrossStagesOrFinals(t *testing.T) {
	for _, cfg := range []core.Config{
		{K: 4, Levels: 2, Strategy: core.StrategyLinear},
		{K: 4, Levels: 2, Strategy: core.StrategyStitch, Seed: 3},
	} {
		seen := map[Key]string{}
		for _, st := range core.Stages() {
			k := StageKeyOf(st, cfg)
			if prev, dup := seen[k]; dup {
				t.Fatalf("%+v: stage %s key collides with %s", cfg, st, prev)
			}
			seen[k] = st.String()
		}
		// A stage past StageReport takes the sim scope under its own
		// header, and must not alias either.
		k := StageKeyOf(core.Stage(99), cfg)
		if prev, dup := seen[k]; dup {
			t.Fatalf("unknown-stage key collides with %s", prev)
		}
	}
}

// TestStageKeyPinnedDigests pins the canonical stage encodings the way
// TestKeyOfPinnedDigest pins the report's: silent drift would orphan
// every stage record in every existing store. Produced by
// stageKeyFormatVersion 4 (which digests core.Stage.Scope with the one
// canonical encoder); if an encoding or a scope must change, bump the
// version and re-pin.
func TestStageKeyPinnedDigests(t *testing.T) {
	cfg := core.Config{K: 4, Levels: 2, Reuse: true, Strategy: core.StrategyStitch, Seed: 7}
	for st, want := range map[core.Stage]string{
		core.StageBuild: "4e5b14db5a9a9935d55f46d025063bae12a48d9398e326596fc86c80749d30fa",
		core.StagePlace: "d174c556033ecad24f9aa8c5998bdd239829c7d0b31d9fc409faf7b9f8d2f5e9",
		core.StageSim:   "257c0ccd5239a7c4e6f48afdcdb604d12e3ec57afdd714a6268187a2128db9c4",
	} {
		if got := StageKeyOf(st, cfg).String(); got != want {
			t.Errorf("stage %s digest drifted:\n got %s\nwant %s\n(bump stageKeyFormatVersion if the encoding changed on purpose)", st, got, want)
		}
	}
}

// TestStageKeyGuardsConfigFields is the reflection guard for the
// scopes the stage keys digest (core.Stage.Scope, the one place a
// Config field is classified): every Config field, and every field of
// the nested force-directed options, is listed with the earliest stage
// whose key it moves for some strategy and workload kind, checked by
// perturbing the field on a base config per strategy and workload. A
// new field fails here until Scope classifies it and
// stageKeyFormatVersion is bumped.
func TestStageKeyGuardsConfigFields(t *testing.T) {
	want := map[string]string{
		"K":          "build",
		"Levels":     "build",
		"Reuse":      "build",
		"NoBarriers": "build",
		"Strategy":   "build", // stitching fuses it into the build; mappers at place
		"Seed":       "build", // stitching and random workloads; seeded mappers at place
		"MeshMode":   "place", // FD scores candidates in simulation; sim for the rest
		"Style":      "place",
		"Distance":   "place",
		// RecordPaths changes diagnostics only; it gates StageCacheable.
		"RecordPaths":         "none",
		"FD.Iterations":       "place",
		"FD.Seed":             "none", // placeFD seeds the annealer from Seed
		"FD.MarginRows":       "place",
		"FD.DisableDipole":    "place",
		"FD.DisableCommunity": "place",
		"FD.RestartWorkers":   "none", // the annealer never reads it
		"Workload":            "build",
		"WorkloadSource":      "build",
		"Defects":             "place", // mappers relocate around dead tiles
	}
	var bases []core.Config
	for _, st := range []core.Strategy{
		core.StrategyRandom, core.StrategyLinear, core.StrategyForceDirected,
		core.StrategyGraphPartition, core.StrategyStitch,
	} {
		bases = append(bases,
			core.Config{K: 2, Levels: 2, Strategy: st, Seed: 1},
			core.Config{K: 2, Levels: 2, Strategy: st, Seed: 1, Workload: "random", WorkloadSource: "q=8;layers=2"})
	}
	// earliest names the first stage whose key moves when perturb is
	// applied to some base, or "none".
	earliest := func(perturb func(reflect.Value)) string {
		first := len(core.Stages())
		for _, base := range bases {
			mut := base
			perturb(reflect.ValueOf(&mut).Elem())
			for i, st := range core.Stages() {
				if StageKeyOf(st, base) != StageKeyOf(st, mut) {
					first = min(first, i)
					break
				}
			}
		}
		if first == len(core.Stages()) {
			return "none"
		}
		return core.Stages()[first].String()
	}
	var walk func(prefix string, path []int, rt reflect.Type)
	walk = func(prefix string, path []int, rt reflect.Type) {
		for i := 0; i < rt.NumField(); i++ {
			f := rt.Field(i)
			fieldPath := append(append([]int(nil), path...), i)
			name := prefix + f.Name
			if f.Type.Kind() == reflect.Struct {
				walk(name+".", fieldPath, f.Type)
				continue
			}
			got := earliest(func(v reflect.Value) {
				fv := v.FieldByIndex(fieldPath)
				switch fv.Kind() {
				case reflect.Int, reflect.Int64:
					fv.SetInt(fv.Int() + 1)
				case reflect.Bool:
					fv.SetBool(!fv.Bool())
				case reflect.String:
					fv.SetString(fv.String() + "x")
				default:
					t.Fatalf("%s: no perturbation for kind %s — extend this guard", name, fv.Kind())
				}
			})
			w, ok := want[name]
			switch {
			case !ok:
				t.Errorf("core.Config field %s is not classified — teach core.Stage.Scope about it, bump both key format versions, and list it here (its keys move from %q)", name, got)
			case got != w:
				t.Errorf("core.Config field %s first moves the %q key, want %q", name, got, w)
			}
			delete(want, name)
		}
	}
	walk("", nil, reflect.TypeOf(core.Config{}))
	for name := range want {
		t.Errorf("classification lists %s, which is no longer a core.Config field", name)
	}
}

func TestStageCacheableGatesSimOnly(t *testing.T) {
	plain := core.Config{K: 4, Levels: 2}
	paths := plain
	paths.RecordPaths = true
	for _, st := range core.Stages() {
		if !StageCacheable(st, plain) {
			t.Errorf("stage %s should be cacheable for a plain config", st)
		}
	}
	if !StageCacheable(core.StageBuild, paths) || !StageCacheable(core.StagePlace, paths) {
		t.Error("build/place artifacts are lossless and must stay cacheable under RecordPaths")
	}
	if StageCacheable(core.StageSim, paths) || StageCacheable(core.StageReport, paths) {
		t.Error("sim and report artifacts drop the path diagnostics and must not be cacheable under RecordPaths")
	}
}
