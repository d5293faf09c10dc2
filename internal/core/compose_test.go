package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"magicstate/internal/force"
	"magicstate/internal/mesh"
)

// logged returns a Resolve that records st in *log, then computes.
func logged[T any](log *[]Stage, st Stage) Resolve[T] {
	return func(ctx context.Context, _ Config, compute func(context.Context) (T, error)) (T, error) {
		*log = append(*log, st)
		return compute(ctx)
	}
}

// loggingResolver resolves every stage by computing it, recording the
// order Compose asked for them.
func loggingResolver(log *[]Stage) StageResolver {
	return StageResolver{
		Build: logged[*BuildArtifact](log, StageBuild),
		Place: logged[*PlaceArtifact](log, StagePlace),
		Sim:   logged[*mesh.Result](log, StageSim),
	}
}

// scalars strips a report's artifact pointers so two reports compare by
// their outcome.
func scalars(r *Report) Report {
	s := *r
	s.Factory, s.Placement, s.Sim = nil, nil, nil
	return s
}

// TestComposeResolvesStagesInOrder is the structural test for the one
// composition: stages resolve build → place → sim, stitching resolves
// no placement (its build carries it), and a fresh force-directed
// placement resolves no simulation (it carries its winner's). Every
// path reports what the resolver-free RunContext reports.
func TestComposeResolvesStagesInOrder(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want []Stage
	}{
		{Config{K: 2, Levels: 1, Strategy: StrategyLinear}, []Stage{StageBuild, StagePlace, StageSim}},
		{Config{K: 2, Levels: 2, Strategy: StrategyRandom, Seed: 5}, []Stage{StageBuild, StagePlace, StageSim}},
		{Config{K: 2, Levels: 2, Strategy: StrategyStitch, Seed: 3}, []Stage{StageBuild, StageSim}},
		{Config{K: 2, Levels: 1, Strategy: StrategyForceDirected, Seed: 2, FD: force.Options{Iterations: 8}}, []Stage{StageBuild, StagePlace}},
	} {
		var log []Stage
		got, err := Compose(context.Background(), tc.cfg, loggingResolver(&log))
		if err != nil {
			t.Fatalf("%v: %v", tc.cfg.Strategy, err)
		}
		if !reflect.DeepEqual(log, tc.want) {
			t.Errorf("%v: resolved %v, want %v", tc.cfg.Strategy, log, tc.want)
		}
		want, err := RunContext(context.Background(), tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if scalars(got) != scalars(want) {
			t.Errorf("%v: resolved report %+v differs from RunContext's %+v", tc.cfg.Strategy, scalars(got), scalars(want))
		}
	}
}

// TestComposeCancelAfterFDPlacement pins the post-placement
// cancellation boundary where it is easiest to lose: a force-directed
// placement already carries its simulation, so nothing downstream would
// check the context on its own. A caller that hangs up while the
// placement computes gets context.Canceled, never a report.
func TestComposeCancelAfterFDPlacement(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := StageResolver{
		Place: func(ctx context.Context, _ Config, compute func(context.Context) (*PlaceArtifact, error)) (*PlaceArtifact, error) {
			p, err := compute(ctx)
			cancel()
			return p, err
		},
		Sim: func(context.Context, Config, func(context.Context) (*mesh.Result, error)) (*mesh.Result, error) {
			t.Fatal("sim resolved after the caller cancelled")
			return nil, nil
		},
	}
	cfg := Config{K: 2, Levels: 1, Strategy: StrategyForceDirected, Seed: 2, FD: force.Options{Iterations: 8}}
	rep, err := Compose(ctx, cfg, r)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Compose = %v, want context.Canceled", err)
	}
	if rep != nil {
		t.Fatalf("cancelled run assembled a report: %+v", scalars(rep))
	}
}
