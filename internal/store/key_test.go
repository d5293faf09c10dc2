package store

import (
	"reflect"
	"testing"

	"magicstate/internal/core"
	"magicstate/internal/force"
)

func TestKeyOfPinnedDigest(t *testing.T) {
	// The canonical encoding must be stable across processes and
	// releases: a silent change would orphan every existing store. This
	// digest was produced by keyFormatVersion 4 (which dropped the cost
	// model, RouteMargin, the stitch options and the force-directed
	// weights, sample size and restarts); if the encoding must change,
	// bump keyFormatVersion and re-pin.
	const want = "01aa69db8bc5a3b7809d6d998c26050fb51dcabab88712bd8062f70a7e3745f0"
	got := KeyOf(core.Config{K: 4, Levels: 2, Reuse: true, Strategy: core.StrategyStitch, Seed: 7}).String()
	if got != want {
		t.Fatalf("KeyOf digest drifted:\n got %s\nwant %s\n(bump keyFormatVersion if the encoding changed on purpose)", got, want)
	}
}

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
	add("Workload", func(c *core.Config) { c.Workload = "random" })
	add("WorkloadSource", func(c *core.Config) { c.WorkloadSource = "q=8;layers=2" })
	add("Defects", func(c *core.Config) { c.Defects = "1,1" })

	baseKey := KeyOf(base)
	seen := map[Key]string{baseKey: "base"}
	for name, cfg := range mutations {
		k := KeyOf(cfg)
		if prev, dup := seen[k]; dup {
			t.Errorf("mutating %s collides with %s", name, prev)
		}
		seen[k] = name
	}

	// RestartWorkers must NOT change the key: the annealer never reads
	// it, and keying on it would fracture the store for nothing.
	workers := base
	workers.FD.RestartWorkers = 8
	if KeyOf(workers) != baseKey {
		t.Error("FD.RestartWorkers changed the key; nothing reads it and it must stay excluded")
	}
}

// TestKeyGuardsConfigFields pins the exact field sets of core.Config
// and its nested option structs. If this test fails, a field was added
// (or renamed) without teaching KeyOf about it — extend the canonical
// encoding in key.go, bump keyFormatVersion, and update the lists here.
// Skipping that step would make the store serve stale results for
// configs that differ only in the new field.
func TestKeyGuardsConfigFields(t *testing.T) {
	check := func(v any, want []string) {
		t.Helper()
		rt := reflect.TypeOf(v)
		var got []string
		for i := 0; i < rt.NumField(); i++ {
			got = append(got, rt.Field(i).Name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s fields = %v, want %v — update KeyOf and keyFormatVersion", rt, got, want)
		}
	}
	check(core.Config{}, []string{
		"K", "Levels", "Reuse", "NoBarriers", "Strategy", "Seed",
		"MeshMode", "Style", "Distance", "RecordPaths", "FD",
		"Workload", "WorkloadSource", "Defects",
	})
	// RestartWorkers is in this guard list but intentionally absent from
	// KeyOf: the annealer never reads it.
	check(force.Options{}, []string{
		"Iterations", "Seed", "MarginRows", "DisableDipole", "DisableCommunity",
		"RestartWorkers",
	})
}

func TestCacheable(t *testing.T) {
	if !Cacheable(core.Config{K: 4}) {
		t.Fatal("plain config should be cacheable")
	}
	if Cacheable(core.Config{K: 4, RecordPaths: true}) {
		t.Fatal("RecordPaths config must not be cacheable")
	}
}
