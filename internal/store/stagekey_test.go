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
// for different stages — and its final key — must all be distinct, or a
// lookup could replay the wrong kind of record.
func TestStageKeysNeverAliasAcrossStagesOrFinals(t *testing.T) {
	for _, cfg := range []core.Config{
		{K: 4, Levels: 2, Strategy: core.StrategyLinear},
		{K: 4, Levels: 2, Strategy: core.StrategyStitch, Seed: 3},
	} {
		seen := map[Key]string{KeyOf(cfg): "final"}
		for _, st := range core.Stages() {
			k := StageKeyOf(st, cfg)
			if prev, dup := seen[k]; dup {
				t.Fatalf("%+v: stage %s key collides with %s", cfg, st, prev)
			}
			seen[k] = st.String()
		}
		// Unknown stages get a total key too, and it must not alias.
		k := StageKeyOf(core.Stage(99), cfg)
		if prev, dup := seen[k]; dup {
			t.Fatalf("unknown-stage key collides with %s", prev)
		}
	}
}

// TestStageKeyPinnedDigests pins the canonical stage encodings the way
// TestKeyOfPinnedDigest pins the final one: silent drift would orphan
// every stage record in every existing store. Produced by
// stageKeyFormatVersion 3 (which dropped the stitch options from the
// stitch build scope, the cost model and RouteMargin from the mesh
// scope, and the removed force-directed knobs from the FD place scope);
// if an encoding must change, bump the version and re-pin.
func TestStageKeyPinnedDigests(t *testing.T) {
	cfg := core.Config{K: 4, Levels: 2, Reuse: true, Strategy: core.StrategyStitch, Seed: 7}
	for st, want := range map[core.Stage]string{
		core.StageBuild: "22f86597b109d3307bb19fd02fbb6f96c902c5b755f16e916956e7ebb565cf5a",
		core.StagePlace: "94622c08110f0f188ba391ad06985b0b875001f8ce8cbdeaf4300707e6ab8bd4",
		core.StageSim:   "e58b727dba983e5368a6e80050007ea6bc50cf3adb607780e9cdc50591f98bca",
	} {
		if got := StageKeyOf(st, cfg).String(); got != want {
			t.Errorf("stage %s digest drifted:\n got %s\nwant %s\n(bump stageKeyFormatVersion if the encoding changed on purpose)", st, got, want)
		}
	}
}

// TestStageKeyGuardsConfigFields is the reflection pin for the scope
// matrix: every core.Config field must be explicitly classified below.
// When a field is added, this fails until the new field is placed into
// a scope class — teaching StageKeyOf about it (and bumping
// stageKeyFormatVersion) or recording why no stage consumes it.
func TestStageKeyGuardsConfigFields(t *testing.T) {
	// Classification of every Config field by the earliest stage whose
	// key carries it (later stages inherit their inputs' scope):
	//   build       — in the build scope for at least one strategy
	//   place       — joins at the placement key
	//   sim         — joins at the simulation key
	//   excluded    — deliberately in no stage scope
	scope := map[string]string{
		"K":              "build",
		"Levels":         "build",
		"Reuse":          "build",
		"NoBarriers":     "build",
		"Seed":           "build", // stitch fuses it into the build; seeded mappers at place
		"Strategy":       "place",
		"FD":             "place", // FD mapper only (minus RestartWorkers)
		"MeshMode":       "sim",   // and place, for FD's simulation-scored candidates
		"Style":          "sim",
		"Distance":       "sim",
		"RecordPaths":    "excluded", // diagnostics-only; gates StageCacheable instead
		"Workload":       "build",    // the frontend fixes the circuit for every stage
		"WorkloadSource": "build",
		"Defects":        "place", // mappers relocate around defects; sim routes around them
	}
	rt := reflect.TypeOf(core.Config{})
	for i := 0; i < rt.NumField(); i++ {
		name := rt.Field(i).Name
		if _, ok := scope[name]; !ok {
			t.Errorf("core.Config field %s is not classified in the stage-key scope matrix — place it in a scope (updating StageKeyOf and stageKeyFormatVersion) or record it as excluded", name)
		}
		delete(scope, name)
	}
	for name := range scope {
		t.Errorf("scope matrix lists %s, which is no longer a core.Config field", name)
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
	if StageCacheable(core.StageSim, paths) {
		t.Error("sim artifacts drop the path diagnostics and must not be cacheable under RecordPaths")
	}
}
