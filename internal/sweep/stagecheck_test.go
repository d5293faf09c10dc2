package sweep

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"magicstate/internal/core"
	"magicstate/internal/force"
	"magicstate/internal/layout"
	"magicstate/internal/store"
)

// recordBytes canonicalizes a report for byte-identity comparison the
// same way the durable tier does: through the report codec. If a reuse
// path drifted on any stored field, these bytes differ; the rest of the
// report is derived from them and the config.
func recordBytes(rep *core.Report) string { return string(core.EncodeReportArtifact(rep)) }

// randomStageConfig draws one config from the full strategy × style ×
// levels × workload × defects space, sized to stay cheap: the harness
// cares about pipeline composition, not factory scale. Defects stay in
// row 0, where the linear mapping cannot deadlock the router.
func randomStageConfig(rng *rand.Rand) core.Config {
	cfg := core.Config{
		K:        2 + rng.Intn(3),
		Levels:   1 + rng.Intn(2),
		Strategy: core.Strategy(rng.Intn(5)),
		Seed:     int64(1 + rng.Intn(50)),
		Reuse:    rng.Intn(2) == 0,
	}
	if rng.Intn(2) == 0 {
		cfg.Style = 1
	}
	if rng.Intn(3) == 0 {
		cfg.NoBarriers = true
	}
	if cfg.Strategy == core.StrategyForceDirected {
		// A small explicit cap keeps FD anneals fast and deterministic
		// across the replayed paths.
		cfg.FD.Iterations = 5 + rng.Intn(10)
		cfg.K = 2
	}
	if cfg.Strategy == core.StrategyStitch {
		cfg.K = 2
		cfg.Levels = 2
	} else {
		// Frontend circuits replace the factory; stitching needs its
		// round structure, so only the flat strategies draw them.
		switch rng.Intn(4) {
		case 1:
			cfg.Workload, cfg.WorkloadSource = "random", "q=12;layers=8;cx=0.5;t=0.25"
		case 2:
			cfg.Workload, cfg.WorkloadSource = "qasm", "OPENQASM 2.0;\nqreg q[4];\nh q[0];\ncx q[0],q[1];\nt q[1];\ncx q[1],q[2];\ncx q[2],q[3];\ncx q[0],q[3];\n"
		}
	}
	if rng.Intn(3) == 0 {
		if dm := layout.SampleDefects(12, 1, 0.15, rng); dm != nil {
			cfg.Defects = dm.String()
		}
	}
	return cfg
}

// mutateForPartialReuse returns a sibling of cfg that shares the given
// upstream stages: seedSibling keeps the factory build (except for
// stitch and random workloads, whose builds read the seed);
// styleSibling keeps build and — for every strategy but FD — the
// placement too.
func seedSibling(cfg core.Config) core.Config {
	s := cfg
	s.Seed += 1000
	return s
}

func styleSibling(cfg core.Config) core.Config {
	s := cfg
	s.Style = 1 - s.Style
	return s
}

// TestStagedReusePathsMatchMonolithic is the stage-equivalence harness:
// over randomized configs spanning every strategy, style, level count,
// frontend workload and defect map, each partial-reuse path — cold,
// factory-hit, factory+placement hit, and full-record hit — must
// produce a report byte-identical (in its durable record form) to the
// monolithic serial pipeline. Paths run concurrently per config, so
// `go test -race` also checks the tier's locking. Subtests are named by
// draw index and strategy, which no key format change renames.
func TestStagedReusePathsMatchMonolithic(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	n := 10
	if testing.Short() {
		n = 4
	}
	seen := map[store.Key]bool{}
	for i := 0; i < n; i++ {
		cfg := randomStageConfig(rng)
		ck := store.StageKeyOf(core.StageReport, cfg)
		if seen[ck] {
			continue
		}
		seen[ck] = true
		t.Run(fmt.Sprintf("%02d-%s", i, cfg.Strategy), func(t *testing.T) {
			t.Parallel()
			mono, err := core.RunContext(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%+v: monolithic pipeline: %v", cfg, err)
			}
			want := recordBytes(mono)

			st, err := store.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()

			// Cold: nothing cached anywhere.
			cold := New(Options{Store: st, Workers: 1})
			rep, err := cold.RunOne(cfg)
			if err != nil {
				t.Fatalf("cold: %v", err)
			}
			if got := recordBytes(rep); got != want {
				t.Fatalf("cold path diverged:\n got %s\nwant %s", got, want)
			}

			// The remaining paths replay against stores warmed by
			// siblings (or by the config itself), each from a fresh
			// engine so the reuse comes from the durable tier, not the
			// memo. They are independent, so exercise them concurrently
			// for the race detector's benefit.
			paths := []struct {
				name string
				warm core.Config
			}{
				{"factory-hit", seedSibling(cfg)},
				{"factory-place-hit", styleSibling(cfg)},
				{"full-hit", cfg},
			}
			var wg sync.WaitGroup
			for _, p := range paths {
				wg.Add(1)
				go func(name string, warmCfg core.Config) {
					defer wg.Done()
					ps, err := store.Open(t.TempDir())
					if err != nil {
						t.Errorf("%s: %v", name, err)
						return
					}
					defer ps.Close()
					warmer := New(Options{Store: ps, Workers: 1})
					if _, err := warmer.RunOne(warmCfg); err != nil {
						t.Errorf("%s: warming with %+v: %v", name, warmCfg, err)
						return
					}
					eng := New(Options{Store: ps, Workers: 1})
					rep, err := eng.RunOne(cfg)
					if err != nil {
						t.Errorf("%s: %v", name, err)
						return
					}
					if got := recordBytes(rep); got != want {
						t.Errorf("%s path diverged:\n got %s\nwant %s", name, got, want)
					}
				}(p.name, p.warm)
			}
			wg.Wait()
		})
	}
}

// TestStagedReuseCountsFactoryHits pins that the partial-reuse paths
// actually take the stage tier, not just agree on results: a second
// config differing only in Seed must replay the factory build for every
// seeded mapper. Linear reads no seed at all, so its seed sibling has
// the same sim scope and is the same report record: a disk hit with no
// stage traffic.
func TestStagedReuseCountsFactoryHits(t *testing.T) {
	lineSt, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer lineSt.Close()
	line := core.Config{K: 3, Levels: 2, Strategy: core.StrategyLinear, Seed: 1}
	if _, err := New(Options{Store: lineSt, Workers: 1}).RunOne(line); err != nil {
		t.Fatal(err)
	}
	lineEng := New(Options{Store: lineSt, Workers: 1})
	if _, err := lineEng.RunOne(seedSibling(line)); err != nil {
		t.Fatal(err)
	}
	if got := lineEng.DiskHits(); got != 1 {
		t.Errorf("Line seed sibling: disk hits = %d, want 1 (same sim scope, same record)", got)
	}
	if got := lineEng.StageStats(); got != (StageStats{}) {
		t.Errorf("Line seed sibling: stage stats %+v, want no stage traffic", got)
	}

	for _, strat := range []core.Strategy{core.StrategyRandom, core.StrategyGraphPartition} {
		cfg := core.Config{K: 3, Levels: 2, Strategy: strat, Seed: 1}
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		warmer := New(Options{Store: st, Workers: 1})
		if _, err := warmer.RunOne(cfg); err != nil {
			t.Fatal(err)
		}
		eng := New(Options{Store: st, Workers: 1})
		if _, err := eng.RunOne(seedSibling(cfg)); err != nil {
			t.Fatal(err)
		}
		ss := eng.StageStats()
		if ss.BuildHits != 1 || ss.BuildComputes != 0 {
			t.Errorf("%v: build stage hits/computes = %d/%d, want 1/0", strat, ss.BuildHits, ss.BuildComputes)
		}
		st.Close()
	}

	// Differing only in Style keeps the placement too (Linear here, whose
	// placement is style-independent): both upstream stages replay.
	cfg := core.Config{K: 3, Levels: 2, Strategy: core.StrategyLinear, Seed: 1}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	warmer := New(Options{Store: st, Workers: 1})
	if _, err := warmer.RunOne(cfg); err != nil {
		t.Fatal(err)
	}
	eng := New(Options{Store: st, Workers: 1})
	if _, err := eng.RunOne(styleSibling(cfg)); err != nil {
		t.Fatal(err)
	}
	ss := eng.StageStats()
	if ss.BuildHits != 1 || ss.PlaceHits != 1 || ss.BuildComputes != 0 || ss.PlaceComputes != 0 {
		t.Errorf("style sibling: stage stats %+v, want build and place both replayed", ss)
	}
	if ss.SimComputes != 1 {
		t.Errorf("style sibling: sim computes = %d, want 1 (style is simulated state)", ss.SimComputes)
	}

	// A cold force-directed point computes its build and placement, and
	// the placement's simulation byproduct answers the sim stage: no sim
	// is resolved at all.
	fdSt, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fdSt.Close()
	fd := New(Options{Store: fdSt, Workers: 1})
	if _, err := fd.RunOne(core.Config{K: 2, Levels: 1, Strategy: core.StrategyForceDirected, Seed: 1, FD: force.Options{Iterations: 8}}); err != nil {
		t.Fatal(err)
	}
	if got, want := fd.StageStats(), (StageStats{BuildComputes: 1, PlaceComputes: 1}); got != want {
		t.Errorf("cold FD point: stage stats %+v, want %+v", got, want)
	}
}

// TestRandomWorkloadSeedsNeverAlias: a "random" workload draws its
// circuit from Seed, so configs that differ only in Seed are different
// circuits under every strategy and must never share a build artifact.
// Each engine — memo-only and store-backed — runs the seeds in turn and
// must match core.RunContext on every one.
func TestRandomWorkloadSeedsNeverAlias(t *testing.T) {
	for _, strat := range []core.Strategy{
		core.StrategyLinear, core.StrategyRandom, core.StrategyGraphPartition,
	} {
		for _, withStore := range []bool{false, true} {
			opts := Options{Workers: 1}
			if withStore {
				st, err := store.Open(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				opts.Store = st
			}
			eng := New(opts)
			for seed := int64(1); seed <= 3; seed++ {
				cfg := core.Config{
					K: 2, Levels: 1, Strategy: strat, Seed: seed,
					Workload: "random", WorkloadSource: "q=24;layers=12;cx=0.5;t=0.25",
				}
				mono, err := core.RunContext(context.Background(), cfg)
				if err != nil {
					t.Fatalf("%+v: monolithic pipeline: %v", cfg, err)
				}
				rep, err := eng.RunOne(cfg)
				if err != nil {
					t.Fatalf("%+v: engine: %v", cfg, err)
				}
				if got, want := recordBytes(rep), recordBytes(mono); got != want {
					t.Errorf("%v seed %d (store %t): engine served another seed's circuit:\n got %s\nwant %s", strat, seed, withStore, got, want)
				}
			}
		}
	}
}
