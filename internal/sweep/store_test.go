package sweep

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"magicstate/internal/core"
	"magicstate/internal/store"
)

// smallGrid is a cheap capacity x strategy grid with a duplicated point,
// so tests exercise both the memo and the durable tier.
func smallGrid() []core.Config {
	return []core.Config{
		{K: 2, Levels: 1, Strategy: core.StrategyLinear, Seed: 1},
		{K: 3, Levels: 1, Strategy: core.StrategyLinear, Seed: 1},
		{K: 2, Levels: 1, Strategy: core.StrategyRandom, Seed: 1},
		{K: 2, Levels: 1, Strategy: core.StrategyLinear, Seed: 1}, // dup of [0]
	}
}

func TestStoreTierServesAcrossEngines(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := smallGrid()

	eng1 := New(Options{Workers: 2, Store: st})
	reps1, err := eng1.Run(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if hits := eng1.DiskHits(); hits != 0 {
		t.Fatalf("first run DiskHits = %d, want 0", hits)
	}
	if puts := st.Stats().Puts; puts != 3 {
		t.Fatalf("first run stored %d records, want 3 unique points", puts)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// A new process: fresh memo, reopened store. Every unique point must
	// come off disk, and no new records may be written.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	eng2 := New(Options{Workers: 2, Store: st2})
	reps2, err := eng2.Run(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if hits := eng2.DiskHits(); hits != 3 {
		t.Fatalf("second run DiskHits = %d, want 3", hits)
	}
	if puts := st2.Stats().Puts; puts != 0 {
		t.Fatalf("second run stored %d new records, want 0", puts)
	}
	for i := range reps1 {
		a, b := *reps1[i], *reps2[i]
		a.Factory, a.Placement, a.Sim = nil, nil, nil
		b.Factory, b.Placement, b.Sim = nil, nil, nil
		if a != b {
			t.Fatalf("point %d differs across tiers:\n fresh: %+v\n disk:  %+v", i, a, b)
		}
	}
}

// TestStoreTierRecoversTruncatedLog kills the store mid-write (by
// truncating the log) and checks a resumed sweep recomputes exactly the
// lost points and still returns correct results.
func TestStoreTierRecoversTruncatedLog(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := smallGrid()
	eng := New(Options{Workers: 1, Store: st})
	want, err := eng.Run(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Chop the tail off the log — the crash-consistency of a killed run.
	logPath := filepath.Join(dir, "stages.log")
	info, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(logPath, info.Size()/2); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	// Reports only: upstream stage artifacts also live in the log, but
	// the recompute accounting below is stated in points.
	survivors := st2.Stats().Records
	if survivors >= 3 {
		t.Fatalf("truncation left %d reports, expected fewer than 3", survivors)
	}
	eng2 := New(Options{Workers: 1, Store: st2})
	got, err := eng2.Run(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if hits := int(eng2.DiskHits()); hits != survivors {
		t.Fatalf("resume DiskHits = %d, want %d survivors", hits, survivors)
	}
	if puts := int(st2.Stats().Puts); puts != 3-survivors {
		t.Fatalf("resume recomputed %d points, want %d", puts, 3-survivors)
	}
	for i := range want {
		a, b := *want[i], *got[i]
		a.Factory, a.Placement, a.Sim = nil, nil, nil
		b.Factory, b.Placement, b.Sim = nil, nil, nil
		if a != b {
			t.Fatalf("point %d differs after crash recovery", i)
		}
	}
}

func TestUncacheableConfigBypassesStore(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	eng := New(Options{Workers: 1, Store: st})
	cfg := core.Config{K: 2, Levels: 1, Strategy: core.StrategyLinear, Seed: 1, RecordPaths: true}
	rep, err := eng.RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sim == nil {
		t.Fatal("RecordPaths run must keep its simulation artifacts")
	}
	// RecordPaths makes the report uncacheable (its value is the
	// diagnostic payload the report artifact drops) and likewise the sim
	// stage. The build and place stages are lossless for any config, so
	// those artifacts may — and should — still be persisted.
	stats := st.Stats()
	if stats.Records != 0 {
		t.Fatalf("store holds %d reports, want 0 for an uncacheable config", stats.Records)
	}
	// RecordPaths is in no scope, so the plain config names the keys a
	// leaked artifact would sit under (GetStage on cfg itself would miss
	// by the cacheability gate alone).
	plain := cfg
	plain.RecordPaths = false
	for _, stage := range []core.Stage{core.StageSim, core.StageReport} {
		if _, ok := st.GetStage(stage, plain); ok {
			t.Fatalf("%s artifact persisted for a RecordPaths config", stage)
		}
	}
	if stats.StageRecords == 0 {
		t.Fatal("build/place stage artifacts should persist even for RecordPaths configs")
	}
}

func TestDeriveSharesCacheAndClampsWorkers(t *testing.T) {
	eng := New(Options{Workers: 4})
	d := eng.Derive(Options{Workers: 99})
	if got := d.workers; got != 4 {
		t.Fatalf("Derive(99).Workers = %d, want clamp to 4", got)
	}
	if got := eng.Derive(Options{Workers: 2}).workers; got != 2 {
		t.Fatalf("Derive(2).Workers = %d, want 2", got)
	}
	if got := eng.Derive(Options{}).workers; got != 4 {
		t.Fatalf("Derive(0).Workers = %d, want parent width 4", got)
	}

	cfg := core.Config{K: 2, Levels: 1, Strategy: core.StrategyLinear, Seed: 1}
	if _, err := eng.RunOne(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := d.RunOne(cfg); err != nil {
		t.Fatal(err)
	}
	hits, misses := d.CacheStats()
	if hits != 1 || misses != 1 {
		t.Fatalf("shared cache stats = %d hits / %d misses, want 1/1", hits, misses)
	}
}

// TestPersistFailuresCounted pins that a failed durable write is
// counted, not dropped, and never fails the point. A serial Linear
// point appends four records — build, place and sim artifacts, then the
// report — each as one write, so write 1 is the build artifact's and
// write 4 the report's.
func TestPersistFailuresCounted(t *testing.T) {
	cfg := core.Config{K: 2, Levels: 1, Strategy: core.StrategyLinear, Seed: 1}
	want, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		op        int64
		wantPuts  int64
		wantStage int64
	}{
		{"stage artifact", 1, 1, 2},
		{"report", 4, 0, 3},
	} {
		st, err := store.OpenWithFaults(t.TempDir(), &store.FaultPlan{FailWriteOp: tc.op})
		if err != nil {
			t.Fatal(err)
		}
		eng := New(Options{Store: st, Workers: 1})
		rep, err := eng.Derive(Options{}).RunOne(cfg)
		if err != nil {
			t.Fatalf("%s: a failed write failed the point: %v", tc.name, err)
		}
		if rep.Volume != want.Volume || rep.Latency != want.Latency {
			t.Errorf("%s: report %+v, want %+v", tc.name, rep, want)
		}
		if got := eng.PutFailures(); got != 1 {
			t.Errorf("%s: PutFailures = %d, want 1", tc.name, got)
		}
		if s := st.Stats(); s.Puts != tc.wantPuts || s.StagePuts != tc.wantStage {
			t.Errorf("%s: stored %d report / %d other stage records, want %d / %d",
				tc.name, s.Puts, s.StagePuts, tc.wantPuts, tc.wantStage)
		}
		st.Close()
	}
}

// TestSharedStageSurvivesOnePointCancel: two points share one factory
// build. The point whose flight started the build is cancelled while
// the build is under way; the other point, still wanted, must get the
// artifact — the stage flight belongs to both, not to its first caller.
func TestSharedStageSurvivesOnePointCancel(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	a := core.Config{K: 4, Levels: 1, Strategy: core.StrategyLinear, Seed: 1}
	b := a
	b.Seed = 2
	if store.StageKeyOf(core.StageBuild, a) != store.StageKeyOf(core.StageBuild, b) {
		t.Fatal("test points do not share their build stage")
	}
	e := New(Options{Workers: 2, Store: st})
	build := resolve(e, core.StageBuild, core.EncodeBuildArtifact, core.DecodeBuildArtifact)
	// The build parks until released or its flight's context ends, so
	// a build running on the first caller's context fails once that
	// caller is cancelled.
	building := make(chan struct{})
	release := make(chan struct{})
	compute := func(ctx context.Context) (*core.BuildArtifact, error) {
		close(building)
		select {
		case <-release:
		case <-ctx.Done():
		}
		return core.BuildStage(ctx, a)
	}

	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	errA := make(chan error, 1)
	go func() {
		_, err := build(ctxA, a, compute)
		errA <- err
	}()
	<-building
	type outcome struct {
		art *core.BuildArtifact
		err error
	}
	outB := make(chan outcome, 1)
	go func() {
		art, err := build(context.Background(), b, compute)
		outB <- outcome{art, err}
	}()
	// b has joined the build flight once the stage memo counts a hit.
	for hits, _ := e.stageCache.Stats(); hits == 0; hits, _ = e.stageCache.Stats() {
		time.Sleep(100 * time.Microsecond)
	}
	cancelA()
	if err := <-errA; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled point = %v, want context.Canceled", err)
	}
	close(release)
	got := <-outB
	if got.err != nil {
		t.Fatalf("live point failed with %v, want the build artifact", got.err)
	}
	if got.art == nil || got.art.Factory == nil {
		t.Fatalf("live point got %+v, want a built factory", got.art)
	}
	if c := e.StageStats().BuildComputes; c != 1 {
		t.Fatalf("build computes = %d, want 1 shared build", c)
	}
}

// TestStoreBackedEngineMemoizesRecords: with a store, a cacheable point
// is answered with the same record-shaped report (the decode of its
// report artifact: scalars, no Factory/Placement/Sim) by every tier —
// the computing flight's leader and a caller that joined it, the memo,
// and the disk — while a store-less engine and a RecordPaths point keep
// full reports.
func TestStoreBackedEngineMemoizesRecords(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cfg := core.Config{K: 2, Levels: 1, Strategy: core.StrategyLinear, Seed: 1}
	full, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.DecodeReportArtifact(cfg, core.EncodeReportArtifact(full))
	if err != nil {
		t.Fatal(err)
	}

	// The leader's gate holds the flight open until a second caller has
	// joined it.
	e := New(Options{Workers: 2, Store: st})
	release := make(chan struct{})
	gate := func(ctx context.Context) (func(), error) { <-release; return func() {}, nil }
	reps := make(chan *core.Report, 2)
	run := func(ctx context.Context) {
		rep, err := e.RunOneContext(ctx, cfg)
		if err != nil {
			t.Error(err)
		}
		reps <- rep
	}
	go run(WithGate(context.Background(), gate))
	for _, inFlight := e.FlightStats(); inFlight == 0; _, inFlight = e.FlightStats() {
		time.Sleep(100 * time.Microsecond)
	}
	go run(context.Background())
	for shared, _ := e.FlightStats(); shared == 0; shared, _ = e.FlightStats() {
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	memo, err := e.RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := New(Options{Workers: 1, Store: st}).RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, rep := range map[string]*core.Report{"leader or joiner": <-reps, "joiner or leader": <-reps, "memo": memo, "disk": disk} {
		if rep == nil || *rep != *want {
			t.Fatalf("%s answered %+v, want the record-shaped %+v", name, rep, want)
		}
	}

	if rep, err := New(Options{Workers: 1}).RunOne(cfg); err != nil || rep.Sim == nil || rep.Placement == nil || rep.Factory == nil {
		t.Fatalf("a store-less engine must return the full report, got %+v, %v", rep, err)
	}
	traced := cfg
	traced.RecordPaths = true
	if rep, err := e.RunOne(traced); err != nil || rep.Sim == nil {
		t.Fatalf("a RecordPaths point must keep its simulation, got %+v, %v", rep, err)
	}
}
