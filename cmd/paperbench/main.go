// Command paperbench regenerates the tables and figures of the paper's
// evaluation section (§VIII) on this repository's implementation.
//
// Usage:
//
//	paperbench [-seed N] [-quick] [-parallel N] [-progress] [-checkpoint DIR] [artifact ...]
//	paperbench preset NAME [-parallel N] [-checkpoint DIR]   # run a named sweep suite
//	paperbench -cpuprofile FILE [-memprofile FILE] [artifact ...]
//
// Artifacts: fig6 fig7a fig7b fig9ab fig9d fig10a fig10b table1 all
// (fig10a covers the single-level panels 10a/10b/10e; fig10b the
// two-level panels 10c/10d/10f). The extension artifacts ext-styles,
// ext-area, ext-protocols, ext-yield, ext-stitchgen and ext-defects
// cover the §IX future-work and §III related-work studies; `ext` runs
// all of them.
// -quick shrinks the capacity sweeps so a full pass finishes in well
// under a minute.
//
// Every artifact is a grid of independent pipeline runs, and -parallel N
// executes each grid on N sweep-engine workers (default: one per CPU;
// -parallel 1 reproduces the serial pipeline exactly). Each pipeline
// stage is deterministic per grid point, so stdout and -csv artifacts
// are byte-identical for a given -seed at every -parallel setting —
// only the wall-clock changes. Identical grid points across artifacts
// (Table I and Fig. 10 share capacity cells, for instance) are
// evaluated once per process through the engine's memo cache.
//
// -progress reports per-artifact grid completion ("fig10b 7/16 points")
// on stderr as long sweeps run; stdout stays clean for the artifacts
// themselves.
//
// -checkpoint DIR backs the run with a durable result store (created on
// first use, crash-recovered on open): every pipeline grid point is
// persisted to DIR as it completes, and a later run with the same
// -checkpoint — the same invocation restarted after a kill, or an
// entirely different artifact sharing grid cells — serves stored points
// from disk instead of recomputing them. Artifacts stay byte-identical
// with or without a checkpoint (the store keeps exactly the scalar
// fields the artifact writers read; internal/experiments'
// TestResumeByteIdentical holds the repo to this). A cache summary
// ("checkpoint: N from store, M computed, K records") prints on stderr
// at exit so resumed runs can verify they recomputed nothing.
//
// -cpuprofile and -memprofile capture pprof profiles of whatever
// artifacts the invocation runs; the profiling workflow is documented
// in DESIGN.md.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"magicstate/internal/experiments"
	"magicstate/internal/store"
	"magicstate/internal/sweep"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run is paperbench's body: it parses args, writes the artifacts to
// stdout and timings, progress and errors to stderr, and returns the
// process exit code.
func run(args []string, stdout io.Writer) (code int) {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "random seed shared by all experiments")
	quick := fs.Bool("quick", false, "shrink capacity sweeps for a fast smoke pass")
	samples := fs.Int("fig6samples", 60, "randomized mappings for fig6")
	csvDir := fs.String("csv", "", "also write plot-ready CSV files into this directory")
	parallel := fs.Int("parallel", runtime.NumCPU(), "sweep-engine workers per experiment grid (1 = serial)")
	progress := fs.Bool("progress", false, "report per-artifact grid progress on stderr")
	checkpoint := fs.String("checkpoint", "", "durable result store directory; resumed runs skip already-stored points")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile at exit to this file")
	// Parse flags interleaved with artifact names, so
	// `paperbench all -quick -parallel 4` means what it says (the stdlib
	// parser would silently treat everything after `all` as artifacts).
	var artifacts []string
	rest := args
	for len(rest) > 0 {
		if err := fs.Parse(rest); err != nil {
			if errors.Is(err, flag.ErrHelp) {
				return 0
			}
			return 2
		}
		rest = fs.Args()
		if len(rest) == 0 {
			break
		}
		artifacts = append(artifacts, rest[0])
		rest = rest[1:]
	}

	// Profiles are flushed on every return path: a profile of a failing
	// run is exactly the one worth keeping. A profile that cannot be
	// written in full fails the run.
	var cpuF *os.File
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		cpuF = f
	}
	defer func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			if err := cpuF.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				code = 1
			}
		}
		if *memProfile != "" {
			f, err := os.Create(*memProfile)
			if err == nil {
				runtime.GC() // settle the heap so the profile shows retained state
				err = pprof.WriteHeapProfile(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				code = 1
			}
		}
	}()

	// `paperbench preset <name>` runs a named sweep suite and prints one
	// JSON result per line — the same points and bytes msfud's
	// /v1/batch {"preset": ...} reports. Handled before the engine and
	// checkpoint store come up: the preset runner owns its own batcher
	// (and store handle, which allows one writer per directory).
	if len(artifacts) > 0 && artifacts[0] == "preset" {
		if len(artifacts) != 2 {
			fmt.Fprintln(os.Stderr, "usage: paperbench preset <name> [-parallel N] [-checkpoint DIR]")
			return 2
		}
		if err := runPreset(stdout, artifacts[1], *parallel, *checkpoint); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}

	var artifact atomic.Value // name of the artifact currently sweeping
	artifact.Store("")
	var progressFn func(done, total int)
	if *progress {
		progressFn = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\r%s %d/%d points", artifact.Load(), done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	engOpts := sweep.Options{Workers: *parallel, Progress: progressFn}
	if *checkpoint != "" {
		st, err := store.Open(*checkpoint)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		engOpts.Store = st
	}
	eng := sweep.New(engOpts)
	experiments.SetEngine(eng)
	if st := engOpts.Store; st != nil {
		// Flush the -checkpoint store and print the cache summary on
		// every return path (a crash-killed run skips it by design —
		// recovery at the next open picks up whatever reached the log).
		defer func() {
			stats := st.Stats()
			fmt.Fprintf(os.Stderr, "checkpoint: %d from store, %d computed, %d records in %s\n",
				eng.DiskHits(), stats.Puts, stats.Records, *checkpoint)
			if ss := eng.StageStats(); ss.BuildHits+ss.BuildComputes+ss.PlaceHits+ss.PlaceComputes+ss.SimHits+ss.SimComputes > 0 {
				fmt.Fprintf(os.Stderr, "stages: build %d reused / %d computed, place %d/%d, sim %d/%d (%d stage artifacts, %d failed writes)\n",
					ss.BuildHits, ss.BuildComputes, ss.PlaceHits, ss.PlaceComputes, ss.SimHits, ss.SimComputes,
					stats.StageRecords, eng.PutFailures())
			}
			if err := st.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				code = 1
			}
		}()
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	writeCSV := func(name string, header []string, rows [][]string) error {
		if *csvDir == "" {
			return nil
		}
		f, err := os.Create(filepath.Join(*csvDir, name))
		if err != nil {
			return err
		}
		err = experiments.CSV(f, header, rows)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err // an *os.PathError names the file
	}

	if len(artifacts) == 0 {
		artifacts = []string{"all"}
	}
	known := map[string]bool{"all": true, "ext": true}
	for _, a := range []string{
		"fig6", "fig7a", "fig7b", "fig9ab", "fig9d", "fig10a", "fig10b", "table1",
		"ext-styles", "ext-area", "ext-protocols", "ext-yield", "ext-stitchgen",
		"ext-bk15", "ext-l3", "ext-sched", "ext-defects",
	} {
		known[a] = true
	}
	want := map[string]bool{}
	for _, a := range artifacts {
		if !known[a] {
			fmt.Fprintf(os.Stderr, "unknown artifact %q (see doc comment for the list)\n", a)
			return 2
		}
		want[a] = true
	}
	all := want["all"]

	f7l1 := experiments.PaperFig7L1Capacities
	f7l2 := experiments.PaperFig7L2Capacities
	f9 := experiments.PaperFig9Capacities
	f10l1 := experiments.PaperFig10L1Capacities
	f10l2 := experiments.PaperFig10L2Capacities
	t1l1 := experiments.PaperTable1L1
	t1l2 := experiments.PaperTable1L2
	if *quick {
		f7l1, f7l2 = []int{2, 4, 8}, []int{4, 16}
		f9 = []int{4, 16}
		f10l1, f10l2 = []int{2, 4, 8}, []int{4, 16}
		t1l1, t1l2 = []int{2, 4}, []int{4, 16}
		*samples = 24
	}

	// section runs one selected artifact and times it on stderr. After
	// the first failure every later section is skipped and run returns
	// 1.
	section := func(name string, selected bool, fn func() error) {
		if code != 0 || !selected {
			return
		}
		artifact.Store(name)
		start := time.Now()
		if err := fn(); err != nil {
			if *progress {
				fmt.Fprintln(os.Stderr) // finish any partial \r progress line
			}
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			code = 1
			return
		}
		fmt.Fprintf(os.Stderr, "(%s in %s)\n", name, time.Since(start).Round(time.Millisecond))
		fmt.Fprintln(stdout)
	}
	paper := func(name string, fn func() error) { section(name, all || want[name], fn) }

	paper("fig6", func() error {
		r, err := experiments.Fig6(8, *samples, *seed)
		if err != nil {
			return err
		}
		experiments.WriteFig6(stdout, r)
		var rows [][]string
		for _, p := range r.Points {
			rows = append(rows, []string{
				fmt.Sprint(p.Crossings), fmt.Sprintf("%.4f", p.AvgManhattan),
				fmt.Sprintf("%.4f", p.AvgSpacing), fmt.Sprint(p.Latency)})
		}
		return writeCSV("fig6.csv", []string{"crossings", "avg_manhattan", "avg_spacing", "latency"}, rows)
	})
	paper("fig7a", func() error {
		rows, err := experiments.Fig7(1, f7l1, *seed)
		if err != nil {
			return err
		}
		experiments.WriteFig7(stdout, 1, rows)
		return nil
	})
	paper("fig7b", func() error {
		rows, err := experiments.Fig7(2, f7l2, *seed)
		if err != nil {
			return err
		}
		experiments.WriteFig7(stdout, 2, rows)
		return nil
	})
	paper("fig9ab", func() error {
		rows, err := experiments.Fig9Reuse(f9, *seed)
		if err != nil {
			return err
		}
		experiments.WriteFig9Reuse(stdout, rows)
		return nil
	})
	paper("fig9d", func() error {
		rows, err := experiments.Fig9Hops(f9, *seed)
		if err != nil {
			return err
		}
		experiments.WriteFig9Hops(stdout, rows)
		return nil
	})
	paper("fig10a", func() error {
		rows, err := experiments.Fig10(1, f10l1, *seed)
		if err != nil {
			return err
		}
		experiments.WriteFig10(stdout, 1, rows)
		return nil
	})
	paper("fig10b", func() error {
		rows, err := experiments.Fig10(2, f10l2, *seed)
		if err != nil {
			return err
		}
		experiments.WriteFig10(stdout, 2, rows)
		var csv [][]string
		for _, r := range rows {
			csv = append(csv, []string{r.Strategy, fmt.Sprint(r.Capacity),
				fmt.Sprint(r.Latency), fmt.Sprint(r.Area), fmt.Sprintf("%.6g", r.Volume),
				fmt.Sprint(r.Reuse)})
		}
		return writeCSV("fig10_level2.csv", []string{"strategy", "capacity", "latency", "area", "volume", "reuse"}, csv)
	})
	paper("table1", func() error {
		t, err := experiments.Table1(t1l1, t1l2, *seed)
		if err != nil {
			return err
		}
		experiments.WriteTable1(stdout, t)
		return nil
	})

	// Extension artifacts (§IX future work and §III related work); run
	// with `paperbench ext` or by individual name.
	ext := func(name string, fn func() error) { section(name, all || want[name] || want["ext"], fn) }
	styleLevel, styleK := 2, 4
	yieldKs := []int{2, 4, 6}
	yieldTrials := 20000
	if *quick {
		styleLevel, styleK = 1, 4
		yieldKs = []int{2, 4}
		yieldTrials = 3000
	}
	ext("ext-styles", func() error {
		rows, err := experiments.StylesExperiment(styleK, styleLevel, []int{3, 5, 7, 11, 15, 21})
		if err != nil {
			return err
		}
		experiments.WriteStyles(stdout, styleK, styleLevel, rows)
		var csv [][]string
		for _, r := range rows {
			csv = append(csv, []string{r.Style, fmt.Sprint(r.Distance),
				fmt.Sprint(r.Latency), fmt.Sprint(r.Stalls), fmt.Sprintf("%.6g", r.Volume)})
		}
		if err := writeCSV("ext_styles.csv", []string{"style", "distance", "latency", "stalls", "volume"}, csv); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
		cross, err := experiments.StylesByStrategy(4, 7, *seed)
		if err != nil {
			return err
		}
		experiments.WriteStylesByStrategy(stdout, 4, 7, cross)
		return nil
	})
	ext("ext-area", func() error {
		rows, err := experiments.AreaExpansion(4, styleLevel, []float64{1, 1.25, 1.5, 2, 3}, *seed)
		if err != nil {
			return err
		}
		experiments.WriteAreaExpansion(stdout, 4, styleLevel, rows)
		var csv [][]string
		for _, r := range rows {
			csv = append(csv, []string{fmt.Sprintf("%.2f", r.Factor),
				fmt.Sprint(r.Latency), fmt.Sprint(r.Stalls),
				fmt.Sprint(r.HullArea), fmt.Sprintf("%.6g", r.HullVolume)})
		}
		return writeCSV("ext_area.csv", []string{"factor", "latency", "stalls", "hull_area", "hull_volume"}, csv)
	})
	ext("ext-protocols", func() error {
		rows := experiments.ProtocolComparison(1e-3, 1e-10)
		experiments.WriteProtocols(stdout, 1e-3, 1e-10, rows)
		return nil
	})
	ext("ext-yield", func() error {
		rows, err := experiments.Yield(yieldKs, 2, yieldTrials, *seed)
		if err != nil {
			return err
		}
		experiments.WriteYield(stdout, 2, yieldTrials, rows)
		var csv [][]string
		for _, r := range rows {
			csv = append(csv, []string{fmt.Sprint(r.K), fmt.Sprint(r.Capacity),
				fmt.Sprintf("%.4f", r.AnalyticFullYield), fmt.Sprintf("%.4f", r.SampledFullYield),
				fmt.Sprintf("%.3f", r.MeanOutputs), fmt.Sprintf("%.4f", r.ReserveFullYield)})
		}
		return writeCSV("ext_yield.csv", []string{"k", "capacity", "analytic_full", "sampled_full", "mean_outputs", "reserve_full"}, csv)
	})
	ext("ext-stitchgen", func() error {
		rows, err := experiments.StitchGeneralization(*seed)
		if err != nil {
			return err
		}
		experiments.WriteStitchGen(stdout, rows)
		return nil
	})
	ext("ext-bk15", func() error {
		rows, err := experiments.BK15Mapping(*seed)
		if err != nil {
			return err
		}
		experiments.WriteBK15(stdout, rows)
		return nil
	})
	ext("ext-l3", func() error {
		rows, err := experiments.ThreeLevel(2, *seed)
		if err != nil {
			return err
		}
		experiments.WriteThreeLevel(stdout, 2, rows)
		return nil
	})
	ext("ext-defects", func() error {
		rates := []float64{0, 0.02, 0.05, 0.1}
		rows, err := experiments.DefectImpact(4, 1, rates, *seed)
		if err != nil {
			return err
		}
		experiments.WriteDefectImpact(stdout, 4, 1, rows)
		var csv [][]string
		for _, r := range rows {
			csv = append(csv, []string{fmt.Sprintf("%.2f", r.Rate), fmt.Sprint(r.DefectTiles),
				fmt.Sprint(r.Latency), fmt.Sprint(r.Area), fmt.Sprint(r.Stalls), r.Defects})
		}
		return writeCSV("ext_defects.csv", []string{"rate", "dead_tiles", "latency", "area", "stalls", "map"}, csv)
	})
	ext("ext-sched", func() error {
		caps := []int{4, 16, 36}
		if *quick {
			caps = []int{4, 16}
		}
		rows, err := experiments.SchedReorder(2, caps)
		if err != nil {
			return err
		}
		experiments.WriteSchedReorder(stdout, 2, rows)
		return nil
	})
	return code
}
