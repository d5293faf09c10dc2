package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"magicstate/internal/core"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q does not match %v", d.name, nameRE)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %q: unit %q does not match %v", d.name, d.unit, unitRE)
		}
		if seen[d.name] {
			t.Errorf("metric %q defined twice", d.name)
		}
		seen[d.name] = true
	}
	for m := range spanMetric {
		if !seen[m] {
			t.Errorf("span metric %q is not a per-layer metric", m)
		}
	}
}

// TestRenderPrintsEveryMetricWithUnit checks that a result carries
// every defined metric, each with its unit, even when a workload never
// produced a value for it.
func TestRenderPrintsEveryMetricWithUnit(t *testing.T) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		got := render(defs, map[string]float64{defs[0].name: 1.5})
		if len(got) != len(defs) {
			t.Fatalf("rendered %d metrics, want %d", len(got), len(defs))
		}
		for _, d := range defs {
			v, ok := got[d.name]
			if !ok || v.Unit != d.unit {
				t.Errorf("metric %q rendered as %+v, want unit %q", d.name, v, d.unit)
			}
		}
		line, err := json.Marshal(result{Correct: true, Attempted: 1, Metrics: got})
		if err != nil {
			t.Fatal(err)
		}
		var back map[string]any
		if err := json.Unmarshal(line, &back); err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
			if _, ok := back[k]; !ok {
				t.Errorf("result line lacks %q: %s", k, line)
			}
		}
	}
}

// TestBenchmarkJSONMatchesDefinitions keeps BENCHMARK.json's metric
// lists in step with what the program prints.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	body, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(body, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, program defines %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames)
	}
}

// TestCorruptedReportCounted checks that the output checks catch a
// report whose numbers were tampered with, and count it as failed.
func TestCorruptedReportCounted(t *testing.T) {
	good, err := core.Run(core.Config{K: 2, Levels: 1, Strategy: core.StrategyLinear, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	corrupt := []func(*core.Report){
		func(r *core.Report) { r.Volume++ },
		func(r *core.Report) { r.Latency = r.CriticalLatency - 1 },
		func(r *core.Report) { r.Area = 0 },
	}
	for i, c := range corrupt {
		bad := *good
		c(&bad)
		out := &passOut{quality: map[string]float64{}}
		checkPoints(out, []*core.Report{good, &bad}, true)
		if out.attempted != 2 || out.failed != 1 {
			t.Errorf("corruption %d: attempted %d failed %d, want 2 and 1", i, out.attempted, out.failed)
		}
	}
	// A braid schedule that no longer matches its placement fails the
	// re-simulation audit even when the scalars are consistent.
	bad := *good
	bad.Latency++
	bad.Volume = float64(bad.Latency) * float64(bad.Area)
	out := &passOut{quality: map[string]float64{}}
	checkPoints(out, []*core.Report{&bad}, true)
	if out.failed != 1 {
		t.Errorf("latency drift: failed %d, want 1", out.failed)
	}
	if err := checkReply(optimizeReply{Latency: 10, Area: 3, Volume: 31, CriticalLatency: 5}); err == nil {
		t.Error("checkReply accepted volume != latency x area")
	}
}

func TestSeedChangesInputs(t *testing.T) {
	a, ra := serveSequence(1, 500, serveDupShare, 0)
	b, _ := serveSequence(2, 500, serveDupShare, 0)
	a2, ra2 := serveSequence(1, 500, serveDupShare, 0)
	if reflect.DeepEqual(a, b) {
		t.Error("serve_mixed request sequence ignores the seed")
	}
	if !reflect.DeepEqual(a, a2) || !reflect.DeepEqual(ra, ra2) {
		t.Error("serve_mixed request sequence is not deterministic per seed")
	}
	repeats := 0
	for _, r := range ra {
		if r {
			repeats++
		}
	}
	if repeats == 0 || repeats == len(ra) {
		t.Errorf("sequence has %d repeats of %d requests", repeats, len(ra))
	}

	workloads := func(seed int64) (out []string) {
		for _, c := range meshConfigs(seed) {
			if c.Workload != "" || c.Defects != "" {
				out = append(out, c.WorkloadSource+"|"+c.Defects)
			}
		}
		return out
	}
	if reflect.DeepEqual(workloads(1000), workloads(2000)) {
		t.Error("mesh_sweep random-workload and defect points ignore the seed")
	}
	if !reflect.DeepEqual(workloads(1000), workloads(1000)) {
		t.Error("mesh_sweep points are not deterministic per seed")
	}
}

// TestPassSeeds checks that pass 0 runs on the fixed quality seed in
// every run and that no other pass, and no warm-up, ever shares a seed
// with another pass or warm-up of the same run.
func TestPassSeeds(t *testing.T) {
	for _, seed := range []int64{-3, 0, 1, 7, 301} {
		if got := passSeed(seed, 0); got != qualitySeed {
			t.Errorf("seed %d: pass 0 runs on %d, want %d", seed, got, qualitySeed)
		}
		used := map[int64]string{}
		for i := 0; i < 50; i++ {
			for kind, s := range map[string]int64{"pass": passSeed(seed, i), "warm-up": warmSeed(seed, i)} {
				if prev, ok := used[s]; ok {
					t.Errorf("seed %d: %s %d reuses seed %d of a %s", seed, kind, i, s, prev)
				}
				used[s] = kind
			}
		}
	}
	if passSeed(1, 1) == passSeed(2, 1) {
		t.Error("pass 1 ignores the seed")
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer(1)
	root := tr.root(spanPoint, 1)
	root.do(spanSim, func() { time.Sleep(20 * time.Millisecond) })
	time.Sleep(10 * time.Millisecond)
	root.end()
	self := tr.selfTimes()
	if self[spanSim] < 20*time.Millisecond {
		t.Errorf("sim self time %v, want >= 20ms", self[spanSim])
	}
	if self["other"] < 10*time.Millisecond {
		t.Errorf("other self time %v, want the ~10ms outside the child", self["other"])
	}
	sh := shares(self)
	if s := sh[spanSim] + sh["other"]; s < 0.999 || s > 1.001 {
		t.Errorf("shares sum to %v", s)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v", got)
	}
}
