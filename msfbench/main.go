// Command msfbench is the repository's benchmark. It runs one workload
// for a fixed time budget and prints, as the last line of standard
// output, one JSON object with the run's correctness, its operation
// counts and its metrics:
//
//	msfbench --workload table1_quick --seed 1 --seconds 25 --trace 0
//
// A run alternates set-ups and timed passes until the budget is spent
// (at least three passes). Every pass starts from fresh state and uses
// its own seed derived from --seed, except pass 0, which runs on a fixed
// seed so the quality metrics repeat exactly; set-ups warm up on seeds
// no pass uses. With --trace 0 the metrics are the end-to-end ones, aggregated
// over the passes. With --trace 1 the run alternates untraced passes
// with traced twins on the same seed, prints the per-layer metrics,
// and writes the traced spans as Chrome Trace Event JSON (readable in
// Perfetto) plus a per-layer self-time table.
//
// --workload all runs every workload in its own fresh process and
// prints one table; it exits non-zero if any output check failed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"magicstate/internal/bravyi"
	"magicstate/internal/core"
	"magicstate/internal/layout"
	"magicstate/internal/mesh"
)

var processStart = time.Now()

// buildDir, relative to the checkout root the benchmark runs from,
// holds everything a run writes: temporary stores and trace files.
const buildDir = ".bench_build"

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload with --trace 0.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"volume_geomean", "qubit-cycles"},
}

// perLayer are the metrics of the traced run, reported by every
// workload with --trace 1 (zero where the workload never enters the
// layer). Times and counts are per traced pass.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"place.fd_s", "s"}, {"place.calls", "count"},
		{"sim.s", "s"}, {"sim.calls", "count"}, {"sim.cycles", "cycles"},
		{"sim.stalls", "count"}, {"sim.ns_per_cycle", "ns/cycle"},
		{"place.gp_s", "s"}, {"place.other_s", "s"},
		{"build.bravyi_s", "s"}, {"build.stitch_s", "s"}, {"build.gates", "count"},
		{"frontend.s", "s"}, {"assemble.s", "s"},
		{"plan.s", "s"}, {"plan.build_s", "s"}, {"plan.critical_path_s", "s"}, {"plan.system_sim_s", "s"},
		{"codec.encode_s", "s"}, {"codec.decode_s", "s"}, {"codec.bytes", "bytes"},
		{"store.put_s", "s"}, {"store.get_s", "s"},
		{"sweep.memo_hits", "count"}, {"sweep.memo_misses", "count"},
		{"serve.p50_ms", "ms"}, {"serve.p99_ms", "ms"}, {"serve.throughput_rps", "1/s"},
		{"serve.first_p50_ms", "ms"}, {"serve.repeat_p50_ms", "ms"},
		{"serve.memory_hits", "count"}, {"serve.disk_hits", "count"},
		{"serve.computes", "count"}, {"serve.rejected", "count"},
		{"quality.headline_ratio", "x"}, {"quality.physical_qubits", "qubits"},
		{"trace.overhead_s", "s"},
		{"host.probe_ms", "ms"}, {"host.probe_end_ms", "ms"},
		{"host.workers", "count"}, {"host.gomaxprocs", "count"},
	}
	for _, n := range layerNames {
		defs = append(defs, metricDef{"share." + n, "fraction"})
	}
	return defs
}()

// spanMetric maps the per-layer time metrics to the spans they sum.
var spanMetric = map[string]string{
	"place.fd_s": spanPlaceFD, "sim.s": spanSim, "place.gp_s": spanPlaceGP,
	"place.other_s": spanPlaceOther, "build.bravyi_s": spanBuildBravyi,
	"build.stitch_s": spanBuildStitch, "frontend.s": spanFrontend, "assemble.s": spanAssemble,
	"plan.s": spanPlan, "plan.build_s": spanPlanBuild, "plan.critical_path_s": spanPlanCritical,
	"plan.system_sim_s": spanPlanSystemSim, "codec.encode_s": spanCodecEncode,
	"codec.decode_s": spanCodecDecode, "store.put_s": spanStorePut, "store.get_s": spanStoreGet,
}

var workloadNames = []string{"table1_quick", "mesh_sweep", "plan_provision", "serve_mixed"}

func newWorkload(name string, workers int, msfud, tmp string) (workload, error) {
	switch name {
	case "table1_quick":
		return &table1Quick{workers: workers}, nil
	case "mesh_sweep":
		return &meshSweep{workers: workers, tmp: tmp}, nil
	case "plan_provision":
		return &planProvision{workers: workers}, nil
	case "serve_mixed":
		if msfud == "" {
			return nil, fmt.Errorf("serve_mixed needs --msfud")
		}
		return &serveMixed{workers: workers, bin: msfud, tmpRoot: tmp}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want %s or all)", name, strings.Join(workloadNames, ", "))
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// Pass seeds and warm-up seeds come from disjoint ranges of one
// per-run block, so no warm-up ever computes a timed point. Pass 0
// runs on qualitySeed in every run, outside every block: the quality
// metrics come from it, so they repeat exactly from run to run and
// any change in them is a change in the program's answers.
const (
	seedBlock   = 1000
	warmOffset  = 500
	qualitySeed = -1
	minPasses   = 3
	minTraced   = 2
	probeRounds = 3
)

func passSeed(seed int64, i int) int64 {
	if i == 0 {
		return qualitySeed
	}
	return seed*seedBlock + int64(i)
}
func warmSeed(seed int64, i int) int64 { return seed*seedBlock + warmOffset + int64(i) }

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", ")+" or all")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 25, "time budget of the run in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer breakdown")
	msfud := flag.String("msfud", "", "msfud binary (serve_mixed)")
	flag.Parse()
	if *name == "all" {
		os.Exit(runAll(*seed, *seconds, *traced, *msfud))
	}
	if *traced != 0 && *traced != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if *seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	workers := runtime.NumCPU()
	w, err := newWorkload(*name, workers, *msfud, filepath.Join(buildDir, "tmp"))
	if err != nil {
		fatalf("%v", err)
	}
	h := &harness{w: w, name: *name, seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), workers: workers}
	res, err := h.run(*traced == 1, filepath.Join(buildDir, "trace", fmt.Sprintf("%s-seed%d.json", *name, *seed)))
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "msfbench: "+format+"\n", args...)
	os.Exit(2)
}

// harness runs one workload for the time budget.
type harness struct {
	w       workload
	name    string
	seed    int64
	budget  time.Duration
	workers int
}

// passes collects what a run's passes produced.
type passes struct {
	setups, walls, tracedWalls, rss []float64
	untraced, traced                []*passOut
}

func (h *harness) run(traced bool, tracePath string) (*result, error) {
	fmt.Fprintf(os.Stderr, "msfbench: %s seed %d, %d workers, GOMAXPROCS %d, budget %v, trace %v\n",
		h.name, h.seed, h.workers, runtime.GOMAXPROCS(0), h.budget, traced)
	probe, err := newHostProbe()
	if err != nil {
		return nil, err
	}
	probeStart := probe.measure()
	permBefore := core.PermLatencyFailures()

	var tr *tracer
	lc := &layerCounts{}
	kinds := []*tracer{nil}
	need := minPasses
	if traced {
		tr = newTracer(h.workers)
		// Each untraced pass gets a traced twin on the same seed.
		kinds = append(kinds, tr)
		need = minTraced
	}
	res := &result{}
	var ps passes
	var iterTimes []float64
	start := time.Now()
	for i := 0; i < need || since(start)+median(iterTimes) <= h.budget.Seconds(); i++ {
		iterStart := time.Now()
		for _, kt := range kinds {
			su := time.Now()
			if len(ps.setups) == 0 {
				su = processStart
			}
			err := h.w.setup(warmSeed(h.seed, len(ps.setups)))
			// Collect the set-up's garbage and hand freed memory back to
			// the OS, so the pass's peak resident set starts from the
			// live heap rather than from earlier passes' leftovers.
			debug.FreeOSMemory()
			ps.setups = append(ps.setups, since(su))
			if err != nil {
				h.w.teardown()
				return nil, err
			}
			resetPeakRSS()
			// The audit runs on pass 1, the first pass whose inputs
			// come from --seed.
			out, err := h.w.pass(passSeed(h.seed, i), kt, lc, i == 1)
			h.w.teardown()
			if err != nil {
				return nil, err
			}
			if kt == nil {
				ps.walls = append(ps.walls, out.wall)
				ps.rss = append(ps.rss, out.rss)
				ps.untraced = append(ps.untraced, out)
			} else {
				ps.tracedWalls = append(ps.tracedWalls, out.wall)
				ps.traced = append(ps.traced, out)
				if !sameDigests(ps.untraced[i].digests, out.digests) {
					out.attempted++
					out.fail(fmt.Errorf("traced pass %d outputs differ from the untraced pass on the same seed", i))
				}
			}
			res.Attempted += out.attempted
			res.Failed += out.failed
			for _, e := range out.errs {
				fmt.Fprintf(os.Stderr, "msfbench: check failed: %s\n", e)
			}
		}
		iterTimes = append(iterTimes, since(iterStart))
	}
	if n := core.PermLatencyFailures() - permBefore; n != 0 {
		res.Attempted++
		res.Failed++
		fmt.Fprintf(os.Stderr, "msfbench: check failed: %d permutation-window failures during the run\n", n)
	}
	res.Correct = res.Failed == 0
	probeEnd := probe.measure()
	fmt.Fprintf(os.Stderr, "msfbench: %d passes, wall_s %v, setup_s %v, peak_rss_mb %v, host probe %.2f ms -> %.2f ms\n",
		len(ps.walls), fmtList(ps.walls), fmtList(ps.setups), fmtList(ps.rss), probeStart, probeEnd)

	first := ps.untraced[0]
	if !traced {
		res.Metrics = render(endToEnd, map[string]float64{
			"wall_s":         median(ps.walls),
			"setup_s":        median(ps.setups),
			"peak_rss_mb":    maxOf(ps.rss),
			"volume_geomean": first.quality["volume_geomean"],
		})
		return res, nil
	}

	vals := layerValues(&ps, tr, lc)
	vals["quality.headline_ratio"] = first.quality["headline_ratio"]
	vals["quality.physical_qubits"] = first.quality["physical_qubits"]
	vals["host.probe_ms"] = probeStart
	vals["host.probe_end_ms"] = probeEnd
	vals["host.workers"] = float64(h.workers)
	vals["host.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	res.Metrics = render(perLayer, vals)
	if err := tr.writeChrome(tracePath); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "msfbench: trace written to %s; self time by layer:\n", tracePath)
	writeSelfTable(os.Stderr, tr.selfTimes())
	return res, nil
}

// layerValues derives the per-layer metrics of a traced run: layer
// times and counts per traced pass, the program's own counters and the
// serving latencies from the untraced passes, and self-time shares.
func layerValues(ps *passes, tr *tracer, lc *layerCounts) map[string]float64 {
	n := float64(len(ps.traced))
	vals := map[string]float64{}
	totals := tr.totals()
	for m, sp := range spanMetric {
		vals[m] = totals[sp].Seconds() / n
	}
	vals["place.calls"] = float64(lc.placeCalls) / n
	vals["sim.calls"] = float64(lc.simCalls) / n
	vals["sim.cycles"] = float64(lc.simCycles) / n
	vals["sim.stalls"] = float64(lc.simStalls) / n
	if lc.simCycles > 0 {
		vals["sim.ns_per_cycle"] = float64(totals[spanSim].Nanoseconds()) / float64(lc.simCycles)
	}
	vals["build.gates"] = float64(lc.gates) / n
	vals["codec.bytes"] = float64(lc.codecBytes) / n
	for _, k := range []string{"sweep.memo_hits", "sweep.memo_misses", "serve.memory_hits", "serve.disk_hits", "serve.computes", "serve.rejected"} {
		var xs []float64
		for _, o := range ps.untraced {
			xs = append(xs, o.counters[k])
		}
		vals[k] = median(xs)
	}
	var lat, firstLat, repLat, tput []float64
	for j, o := range ps.untraced {
		lat = append(lat, o.lat...)
		firstLat = append(firstLat, o.first...)
		repLat = append(repLat, o.repeat...)
		if len(o.lat) > 0 {
			tput = append(tput, float64(len(o.lat))/ps.walls[j])
		}
	}
	vals["serve.p50_ms"] = quantile(lat, 0.5)
	vals["serve.p99_ms"] = quantile(lat, 0.99)
	vals["serve.throughput_rps"] = median(tput)
	vals["serve.first_p50_ms"] = quantile(firstLat, 0.5)
	vals["serve.repeat_p50_ms"] = quantile(repLat, 0.5)
	vals["trace.overhead_s"] = median(ps.tracedWalls) - median(ps.walls)
	for name, s := range shares(tr.selfTimes()) {
		vals["share."+name] = s
	}
	return vals
}

// render gives every defined metric its value (0 when absent) and unit.
func render(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{vals[d.name], d.unit}
	}
	return out
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

func sameDigests(a, b [][32]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// hostProbe times one fixed mesh simulation (a two-level K=8 factory
// under the linear mapping). It is a diagnostic of host speed at the
// start and end of a run, never used to normalise another metric.
type hostProbe struct {
	f  *bravyi.Factory
	pl *layout.Placement
}

func newHostProbe() (*hostProbe, error) {
	f, err := bravyi.Build(bravyi.Params{K: 8, Levels: 2, Barriers: true})
	if err != nil {
		return nil, err
	}
	return &hostProbe{f: f, pl: layout.Linear(f)}, nil
}

// measure returns the median of probeRounds simulation times in ms.
func (p *hostProbe) measure() float64 {
	var ts []float64
	sim := mesh.NewSimulator()
	for i := 0; i < probeRounds; i++ {
		t0 := time.Now()
		if _, err := sim.Simulate(p.f.Circuit, p.pl, mesh.Config{}); err != nil {
			fatalf("host probe: %v", err)
		}
		ts = append(ts, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return median(ts)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func maxOf(xs []float64) float64 { return quantile(xs, 1) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// resetPeakRSS restarts this process's peak resident set (VmHWM) from
// its current resident set, so each pass measures its own peak.
func resetPeakRSS() {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fatalf("reset peak RSS: %v", err)
	}
}

// selfPeakRSSMB is this process's peak resident set in MB.
func selfPeakRSSMB() float64 { return pidPeakRSSMB(os.Getpid()) }

// pidPeakRSSMB reads VmHWM (peak resident set) of a process from /proc.
func pidPeakRSSMB(pid int) float64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func tempDir(root, pattern string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, pattern)
}

func removeAll(dir string) {
	if dir != "" {
		_ = os.RemoveAll(dir)
	}
}

// runAll runs every workload in its own process and prints one table.
func runAll(seed int64, seconds float64, traced int, msfud string) int {
	self, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	code := 0
	for _, name := range workloadNames {
		cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(traced), "--msfud", msfud)
		cmd.Stderr = os.Stderr
		outb, err := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(outb)), "\n")
		var res result
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
			fmt.Printf("%-16s no result (%v)\n", name, err)
			code = 1
			continue
		}
		if err != nil || !res.Correct {
			code = 1
		}
		fmt.Printf("%-16s correct=%v attempted=%d failed=%d\n", name, res.Correct, res.Attempted, res.Failed)
		keys := make([]string, 0, len(res.Metrics))
		for k := range res.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  %-26s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
		}
	}
	return code
}
