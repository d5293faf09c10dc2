// Cross-substrate integration tests: each one chains several packages the
// way the examples and the provisioning planner do, so regressions at the
// seams (traces reading mapped runs, stitched circuits surviving the
// simulator's invariants) surface in `go test .` rather than only in
// examples.
package magicstate_test

import (
	"strings"
	"testing"

	"magicstate/internal/bravyi"
	"magicstate/internal/circuits"
	"magicstate/internal/core"
	"magicstate/internal/mesh"
	"magicstate/internal/montecarlo"
	"magicstate/internal/resource"
	"magicstate/internal/subdiv"
	"magicstate/internal/trace"
)

// TestTraceReadsEveryStrategy runs the full Fig. 3 pipeline under every
// mapping strategy and checks the trace diagnostics stay coherent.
func TestTraceReadsEveryStrategy(t *testing.T) {
	for _, s := range core.Strategies(2) {
		rep, err := core.Run(core.Config{K: 2, Levels: 2, Reuse: true, Strategy: s, Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		spans, err := trace.RoundTimeline(rep.Factory, rep.Sim)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if len(spans) != 2 {
			t.Fatalf("%v: %d round spans", s, len(spans))
		}
		if spans[1].PermCycles() <= 0 {
			t.Errorf("%v: no permutation window in round 2", s)
		}
		var sb strings.Builder
		if err := trace.WriteReport(&sb, rep.Factory, rep.Sim); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !strings.Contains(sb.String(), "permutation share") {
			t.Errorf("%v: report incomplete", s)
		}
	}
}

// TestStitchedWorkloadsSurviveStyles runs subdivision-stitched arbitrary
// circuits under every interaction style and audits the space-time
// overlap invariant end to end.
func TestStitchedWorkloadsSurviveStyles(t *testing.T) {
	c, err := circuits.HierarchicalRandom(circuits.HierarchicalOptions{
		Blocks: 3, QubitsPerBlock: 6, Phases: 3,
		IntraCNOTs: 10, BridgeCNOTs: 2, Barriers: true, Shuffle: true, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := subdiv.Stitch(c, subdiv.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, style := range mesh.Styles() {
		res, err := mesh.Simulate(st.Circuit, st.Placement, mesh.Config{
			Style: style, RecordPaths: true,
		})
		if err != nil {
			t.Fatalf("%v: %v", style, err)
		}
		if err := res.CheckNoOverlaps(); err != nil {
			t.Errorf("%v: %v", style, err)
		}
	}
}

// TestProvisioningConsistency cross-checks the planner's derating factor
// against the resource model it is built on.
func TestProvisioningConsistency(t *testing.T) {
	params := bravyi.Params{K: 2, Levels: 2, Barriers: true}
	em := resource.DefaultError()
	runs := resource.ExpectedRunsPerSuccess(params, em)
	yield := montecarlo.AnalyticFullYield(params, em)
	if got := runs * yield; got < 0.999 || got > 1.001 {
		t.Errorf("runs x yield = %g, want 1", got)
	}
}
