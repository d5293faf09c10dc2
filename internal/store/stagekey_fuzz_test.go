package store

import (
	"testing"

	"magicstate/internal/core"
	"magicstate/internal/mesh"
)

// fuzzConfig builds a Config from raw fuzz scalars, mapping the
// strategy byte into the real enum range so every strategy's scoping
// rules get exercised.
func fuzzConfig(k, levels int, strategy byte, seed int64, mode, style, distance, fdIters int, reuse, noBarriers, recordPaths bool) core.Config {
	cfg := core.Config{
		K: k, Levels: levels,
		Strategy:    core.Strategy(int(strategy) % 5),
		Seed:        seed,
		MeshMode:    mesh.RouteMode(mode % 3),
		Distance:    distance,
		RecordPaths: recordPaths,
		Reuse:       reuse, NoBarriers: noBarriers,
	}
	cfg.Style = 0
	if style%2 == 1 {
		cfg.Style = 1
	}
	cfg.FD.Iterations = fdIters
	return cfg
}

// FuzzStageKeyScope drives the scope matrix across the whole config
// space: for an arbitrary config, every mutation of a field must move a
// stage's key exactly when that stage (or a stage it inherits from)
// consumes the field under the config's strategy. It is the
// generalization of TestStageKeyScopes from hand-picked points to
// fuzzer-chosen ones.
func FuzzStageKeyScope(f *testing.F) {
	f.Add(4, 2, byte(1), int64(1), 0, 0, 0, 0, false, false, false)
	f.Add(2, 1, byte(0), int64(9), 1, 1, 11, 40, true, true, true)
	f.Add(8, 2, byte(4), int64(-3), 2, 0, 7, 0, false, true, false)
	f.Add(6, 2, byte(2), int64(42), 0, 1, 0, 17, true, false, true)
	f.Add(3, 1, byte(3), int64(0), 5, 0, 3, 0, false, false, false)

	f.Fuzz(func(t *testing.T, k, levels int, strategy byte, seed int64, mode, style, distance, fdIters int, reuse, noBarriers, recordPaths bool) {
		cfg := fuzzConfig(k, levels, strategy, seed, mode, style, distance, fdIters, reuse, noBarriers, recordPaths)
		base := keysOf(cfg)
		stitch := cfg.Strategy == core.StrategyStitch
		fd := cfg.Strategy == core.StrategyForceDirected
		seeded := cfg.Strategy == core.StrategyRandom || cfg.Strategy == core.StrategyGraphPartition || fd

		expect := func(field, got, want string) {
			if got != want {
				t.Errorf("%v %s: changed stages %q, want %q", cfg.Strategy, field, got, want)
			}
		}

		// K reaches the build (and therefore everything downstream).
		mut := cfg
		mut.K++
		expect("K", base.diff(keysOf(mut)), "build+place+sim")

		// Seed: fused into stitch builds, consumed by the seeded mappers
		// at placement, invisible to Linear.
		mut = cfg
		mut.Seed++
		switch {
		case stitch:
			expect("Seed", base.diff(keysOf(mut)), "build+place+sim")
		case seeded:
			expect("Seed", base.diff(keysOf(mut)), "place+sim")
		default:
			expect("Seed", base.diff(keysOf(mut)), "")
		}

		// A random workload draws its circuit from Seed, so there the
		// seed reaches the build whatever the strategy.
		rw := cfg
		rw.Workload, rw.WorkloadSource = "random", "q=8;layers=2"
		mut = rw
		mut.Seed++
		expect("random-workload Seed", keysOf(rw).diff(keysOf(mut)), "build+place+sim")

		// The mesh scope (distance here) reaches the simulation; FD
		// additionally scores placements with it.
		mut = cfg
		mut.Distance++
		if fd {
			expect("Distance", base.diff(keysOf(mut)), "place+sim")
		} else {
			expect("Distance", base.diff(keysOf(mut)), "sim")
		}

		// FD options are the FD mapper's alone.
		mut = cfg
		mut.FD.Iterations++
		if fd {
			expect("FD.Iterations", base.diff(keysOf(mut)), "place+sim")
		} else {
			expect("FD.Iterations", base.diff(keysOf(mut)), "")
		}

		// Diagnostics and throughput knobs never touch any stage key.
		mut = cfg
		mut.RecordPaths = !mut.RecordPaths
		expect("RecordPaths", base.diff(keysOf(mut)), "")
		mut = cfg
		mut.FD.RestartWorkers += 4
		expect("FD.RestartWorkers", base.diff(keysOf(mut)), "")

		// Stage keys never alias each other, the report key included, or
		// a key under a stage past StageReport, whatever the config.
		seen := map[Key]string{}
		for _, st := range append(core.Stages(), core.Stage(200)) {
			sk := StageKeyOf(st, cfg)
			if prev, dup := seen[sk]; dup {
				t.Fatalf("stage %s key aliases %s for %+v", st, prev, cfg)
			}
			seen[sk] = st.String()
		}
	})
}
