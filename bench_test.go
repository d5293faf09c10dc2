// Benchmarks regenerating each table and figure of the paper (scaled-down
// capacity sweeps so the full suite stays minutes; cmd/paperbench runs the
// paper's full parameter sets) plus ablation benches for the design
// choices DESIGN.md calls out. Volume metrics are attached to the bench
// output via ReportMetric so regressions in result quality — not just
// runtime — are visible.
package magicstate_test

import (
	"testing"

	"magicstate/internal/bravyi"
	"magicstate/internal/core"
	"magicstate/internal/experiments"
	"magicstate/internal/force"
	"magicstate/internal/graph"
	"magicstate/internal/layout"
	"magicstate/internal/mesh"
	"magicstate/internal/partition"
	"magicstate/internal/plan"
	"magicstate/internal/stats"
	"magicstate/internal/stitch"
	"magicstate/internal/sweep"
)

// freshEngines makes every iteration of b start on an empty memo. The
// experiments engine is process-wide, so without it each iteration after
// the first would time memo hits. Call the returned func at the top of
// each iteration; b's end restores the original engine.
func freshEngines(b *testing.B) func() {
	orig := experiments.Engine()
	b.Cleanup(func() { experiments.SetEngine(orig) })
	return func() {
		b.StopTimer()
		experiments.SetEngine(sweep.New(sweep.Options{}))
		b.StartTimer()
	}
}

func BenchmarkFig6Correlations(b *testing.B) {
	fresh := freshEngines(b)
	for i := 0; i < b.N; i++ {
		fresh()
		r, err := experiments.Fig6(8, 24, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.RCrossings, "r_crossings")
		b.ReportMetric(r.RSpacing, "r_spacing")
	}
}

func BenchmarkFig7SingleLevel(b *testing.B) {
	fresh := freshEngines(b)
	for i := 0; i < b.N; i++ {
		fresh()
		rows, err := experiments.Fig7(1, []int{2, 4, 8}, 1)
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(float64(last.GPLatency)/float64(last.Critical), "gp_vs_bound")
	}
}

func BenchmarkFig7TwoLevel(b *testing.B) {
	fresh := freshEngines(b)
	for i := 0; i < b.N; i++ {
		fresh()
		rows, err := experiments.Fig7(2, []int{4, 16}, 1)
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(float64(last.GPLatency)/float64(last.Critical), "gp_vs_bound")
	}
}

func BenchmarkFig9Reuse(b *testing.B) {
	fresh := freshEngines(b)
	for i := 0; i < b.N; i++ {
		fresh()
		rows, err := experiments.Fig9Reuse([]int{4, 16}, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].LineDiff, "line_reuse_gain")
	}
}

func BenchmarkFig9Hops(b *testing.B) {
	fresh := freshEngines(b)
	for i := 0; i < b.N; i++ {
		fresh()
		rows, err := experiments.Fig9Hops([]int{4, 16}, 1)
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(float64(last.NoHop)/float64(last.AnnealedMidpoint), "hop_speedup")
	}
}

func BenchmarkFig10SingleLevel(b *testing.B) {
	fresh := freshEngines(b)
	for i := 0; i < b.N; i++ {
		fresh()
		rows, err := experiments.Fig10(1, []int{2, 4, 8}, 1)
		if err != nil {
			b.Fatal(err)
		}
		_ = rows
	}
}

func BenchmarkFig10TwoLevel(b *testing.B) {
	fresh := freshEngines(b)
	for i := 0; i < b.N; i++ {
		fresh()
		rows, err := experiments.Fig10(2, []int{4, 16}, 1)
		if err != nil {
			b.Fatal(err)
		}
		var hs, line float64
		for _, r := range rows {
			if r.Capacity == 16 {
				switch r.Strategy {
				case "HS":
					hs = r.Volume
				case "Line":
					line = r.Volume
				}
			}
		}
		if hs > 0 {
			b.ReportMetric(line/hs, "line_over_hs")
		}
	}
}

func BenchmarkTableI(b *testing.B) {
	fresh := freshEngines(b)
	for i := 0; i < b.N; i++ {
		fresh()
		t, err := experiments.Table1([]int{2, 4}, []int{4, 16}, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.HeadlineImprovement(), "line_over_hs")
	}
}

// --- Ablation benches -------------------------------------------------

// BenchmarkAblationRouting compares the paper's dimension-ordered braid
// model against box-limited and fully adaptive routing on a two-level
// linear mapping: adaptive routers hide the congestion the paper's
// optimizations exist to remove.
func BenchmarkAblationRouting(b *testing.B) {
	f, err := bravyi.Build(bravyi.Params{K: 4, Levels: 2, Barriers: true})
	if err != nil {
		b.Fatal(err)
	}
	pl := layout.Linear(f)
	for _, mode := range []struct {
		name string
		mode mesh.RouteMode
	}{{"xy", mesh.RouteXY}, {"box", mesh.RouteBox}, {"adaptive", mesh.RouteAdaptive}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := mesh.Simulate(f.Circuit, pl, mesh.Config{Mode: mode.mode})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Latency), "latency_cycles")
			}
		})
	}
}

// BenchmarkAblationBarriers measures the effect of the inter-round
// scheduling fences of §V.A.
func BenchmarkAblationBarriers(b *testing.B) {
	for _, bar := range []struct {
		name string
		on   bool
	}{{"with", true}, {"without", false}} {
		b.Run(bar.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := core.Run(core.Config{
					K: 4, Levels: 2, Strategy: core.StrategyLinear,
					NoBarriers: !bar.on, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(rep.Latency), "latency_cycles")
			}
		})
	}
}

// BenchmarkAblationDipole isolates the magnetic-dipole rotation force in
// the FD annealer.
func BenchmarkAblationDipole(b *testing.B) {
	f, err := bravyi.Build(bravyi.Params{K: 8, Levels: 1})
	if err != nil {
		b.Fatal(err)
	}
	g := graph.FromCircuit(f.Circuit)
	init := layout.Random(f.Circuit.NumQubits, stats.NewRNG(3))
	for _, d := range []struct {
		name    string
		disable bool
	}{{"with", false}, {"without", true}} {
		b.Run(d.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := force.Anneal(g, f.Circuit, init, force.Options{Seed: 3, DisableDipole: d.disable})
				m := layout.Measure(g, p)
				b.ReportMetric(float64(m.Crossings), "crossings")
			}
		})
	}
}

// BenchmarkAblationPortReassign isolates the Hungarian port matching of
// §VII.B.2 inside hierarchical stitching.
func BenchmarkAblationPortReassign(b *testing.B) {
	for _, d := range []struct {
		name    string
		disable bool
	}{{"with", false}, {"without", true}} {
		b.Run(d.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := stitch.Build(bravyi.Params{K: 4, Levels: 2, Barriers: true},
					stitch.Options{Seed: 1, Reuse: true, Hops: stitch.NoHop, DisablePortReassign: d.disable})
				if err != nil {
					b.Fatal(err)
				}
				res, err := mesh.Simulate(r.Factory.Circuit, r.Placement, mesh.Config{})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Latency), "latency_cycles")
			}
		})
	}
}

// --- Microbenches for the hot substrates -------------------------------

func BenchmarkSimulateSingleLevelK8(b *testing.B) {
	f, err := bravyi.Build(bravyi.Params{K: 8, Levels: 1})
	if err != nil {
		b.Fatal(err)
	}
	pl := layout.Linear(f)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mesh.Simulate(f.Circuit, pl, mesh.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulateTwoLevelK64(b *testing.B) {
	f, err := bravyi.Build(bravyi.Params{K: 8, Levels: 2, Barriers: true})
	if err != nil {
		b.Fatal(err)
	}
	pl := layout.Linear(f)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mesh.Simulate(f.Circuit, pl, mesh.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorReuseTwoLevelK64 measures the caller-owned Simulator
// path: arenas, lattice and dependency DAG all carry over between runs,
// which is the steady state of the planner's candidate search and the FD
// mapper's paired evaluations.
func BenchmarkSimulatorReuseTwoLevelK64(b *testing.B) {
	f, err := bravyi.Build(bravyi.Params{K: 8, Levels: 2, Barriers: true})
	if err != nil {
		b.Fatal(err)
	}
	pl := layout.Linear(f)
	sim := mesh.NewSimulator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Simulate(f.Circuit, pl, mesh.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGraphPartitionEmbed(b *testing.B) {
	f, err := bravyi.Build(bravyi.Params{K: 8, Levels: 2, Barriers: true})
	if err != nil {
		b.Fatal(err)
	}
	g := graph.FromCircuit(f.Circuit)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		partition.EmbedSquare(g, stats.NewRNG(int64(i)))
	}
}

// BenchmarkForceAnneal measures the arena-backed annealing engine. The
// K=8 level-1 cases compare against the whole edge list (m under
// CostSample): the engine variant is the FD mapper's steady state (one
// process-wide Annealer whose scratch carries across sweep points), and
// the restart variants exercise the parallel independent-restart path.
// l2_k4 is a level-2 K=4 factory (m=1112 over CostSample), so every move
// draws a fresh edge sample: the path that carries Table I.
func BenchmarkForceAnneal(b *testing.B) {
	type input struct {
		f    *bravyi.Factory
		g    *graph.Graph
		init *layout.Placement
	}
	build := func(p bravyi.Params) input {
		f, err := bravyi.Build(p)
		if err != nil {
			b.Fatal(err)
		}
		return input{f, graph.FromCircuit(f.Circuit), layout.Linear(f)}
	}
	l1k8 := build(bravyi.Params{K: 8, Levels: 1})
	l2k4 := build(bravyi.Params{K: 4, Levels: 2, Barriers: true})
	an := force.NewAnnealer()
	for _, v := range []struct {
		name string
		in   input
		opt  force.Options
	}{
		{"single", l1k8, force.Options{Seed: 1}},
		{"restarts4", l1k8, force.Options{Seed: 1, Restarts: 4}},
		{"restarts4_serial", l1k8, force.Options{Seed: 1, Restarts: 4, RestartWorkers: 1}},
		{"l2_k4", l2k4, force.Options{Seed: 1}},
	} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := an.Anneal(v.in.g, v.in.f.Circuit, v.in.init, v.opt)
				if i == b.N-1 {
					m := layout.Measure(v.in.g, p)
					b.ReportMetric(float64(m.Crossings), "crossings")
				}
			}
		})
	}
}

func BenchmarkStitchBuildK36(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := stitch.Build(bravyi.Params{K: 6, Levels: 2, Barriers: true},
			stitch.Options{Seed: 1, Reuse: true, Hops: stitch.AnnealedMidpointHop}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFactoryGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bravyi.Build(bravyi.Params{K: 10, Levels: 2, Barriers: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanDeepScan prices the planner's deepest candidate scan:
// T = 1e7 builds and critical-paths three-level factories for every
// candidate K before choosing one, serially so the number is per CPU.
func BenchmarkPlanDeepScan(b *testing.B) {
	b.ReportAllocs()
	req := plan.Requirements{TCount: 1e7, ErrorBudget: 0.01, DemandRate: 0.02, Workers: 1}
	for i := 0; i < b.N; i++ {
		if _, err := plan.Plan(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAreaExpansion measures §IX's area-expansion tradeoff:
// empty gutters between stitched blocks buy routing bandwidth.
func BenchmarkAblationAreaExpansion(b *testing.B) {
	for _, sp := range []struct {
		name    string
		spacing int
	}{{"tight", 0}, {"spaced1", 1}, {"spaced3", 3}} {
		b.Run(sp.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := stitch.Build(bravyi.Params{K: 6, Levels: 2, Barriers: true},
					stitch.Options{Seed: 1, Hops: stitch.NoHop, ExpandSpacing: sp.spacing})
				if err != nil {
					b.Fatal(err)
				}
				res, err := mesh.Simulate(r.Factory.Circuit, r.Placement, mesh.Config{})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Latency), "latency_cycles")
			}
		})
	}
}

func BenchmarkExtInteractionStyles(b *testing.B) {
	// §IX interaction-style study: same factory under braiding, lattice
	// surgery and teleportation at a representative code distance.
	for i := 0; i < b.N; i++ {
		rows, err := experiments.StylesExperiment(4, 1, []int{5, 15}, 1)
		if err != nil {
			b.Fatal(err)
		}
		var braid, tele float64
		for _, r := range rows {
			if r.Distance != 15 {
				continue
			}
			switch r.Style {
			case "braiding":
				braid = float64(r.Latency)
			case "teleportation":
				tele = float64(r.Latency)
			}
		}
		b.ReportMetric(tele/braid, "tele_vs_braid_d15")
	}
}

func BenchmarkExtAreaExpansion(b *testing.B) {
	// §IX area-expansion study under the GP embedding.
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AreaExpansion(4, 1, []float64{1, 2}, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[0].Latency)/float64(rows[1].Latency), "latency_gain_2x_area")
	}
}

func BenchmarkExtProtocolZoo(b *testing.B) {
	// §III protocol comparison at the default working point.
	for i := 0; i < b.N; i++ {
		rows := experiments.ProtocolComparison(1e-3, 1e-10)
		best := 0.0
		for _, r := range rows {
			if r.Err == "" && (best == 0 || r.VolumeProxy < best) {
				best = r.VolumeProxy
			}
		}
		b.ReportMetric(best, "best_volume_proxy")
	}
}

func BenchmarkExtMonteCarloYield(b *testing.B) {
	// Monte-Carlo factory yield against the analytic first-order model.
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Yield([]int{2}, 2, 4000, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].SampledFullYield, "sampled_full_yield")
		b.ReportMetric(rows[0].AnalyticFullYield, "analytic_full_yield")
	}
}

func BenchmarkExtStitchGeneralization(b *testing.B) {
	// §IX stitching generalization: windowed stitching vs one global
	// embedding across phase-shuffled, static, local and all-pairs
	// workloads.
	for i := 0; i < b.N; i++ {
		rows, err := experiments.StitchGeneralization(1)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Workload == "qft-16" {
				b.ReportMetric(r.Gain, "qft_gain")
			}
			if r.Workload == "hier-shuffled" {
				b.ReportMetric(r.Gain, "shuffled_gain")
			}
		}
	}
}

func BenchmarkExtSchedReorder(b *testing.B) {
	// §V.A gate-reordering study: commuting-sift vs program order.
	for i := 0; i < b.N; i++ {
		rows, err := experiments.SchedReorder(2, []int{4, 16}, 1)
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(float64(last.SiftedLatency)/float64(last.ProgramLatency), "sifted_vs_program")
	}
}

func BenchmarkExtThreeLevel(b *testing.B) {
	// Beyond the paper: K=2 three-level factory, all strategies; the
	// Line/HS volume ratio shows the permutation overhead compounding.
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ThreeLevel(2, 1)
		if err != nil {
			b.Fatal(err)
		}
		var line, hs float64
		for _, r := range rows {
			switch r.Strategy {
			case "Line":
				line = r.Volume
			case "HS":
				hs = r.Volume
			}
		}
		b.ReportMetric(line/hs, "line_over_hs_l3")
	}
}

func BenchmarkExtBK15Mapping(b *testing.B) {
	// §III robustness check: the mappers on the 15→1 protocol circuit.
	for i := 0; i < b.N; i++ {
		rows, err := experiments.BK15Mapping(1)
		if err != nil {
			b.Fatal(err)
		}
		var random, gp float64
		for _, r := range rows {
			switch r.Strategy {
			case "Random":
				random = r.Volume
			case "GP":
				gp = r.Volume
			}
		}
		b.ReportMetric(random/gp, "random_over_gp")
	}
}
