package sweep

import (
	"context"
	"os"
	"path/filepath"
	"testing"

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
	logPath := filepath.Join(dir, "store.log")
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
	// Final records only: stage artifacts also live in the log, but the
	// recompute accounting below is stated in points.
	survivors := st2.Stats().Records
	if survivors >= 3 {
		t.Fatalf("truncation left %d final records, expected fewer than 3", survivors)
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
	// RecordPaths makes the final report uncacheable (its value is the
	// diagnostic payload the record format drops) and likewise the sim
	// stage. The build and place stages are lossless for any config, so
	// those artifacts may — and should — still be persisted.
	stats := st.Stats()
	if stats.Records != 0 {
		t.Fatalf("store holds %d final records, want 0 for an uncacheable config", stats.Records)
	}
	if _, ok := st.Get(store.StageKeyOf(core.StageSim, cfg)); ok {
		t.Fatal("sim stage artifact persisted for a RecordPaths config")
	}
	if stats.StageRecords == 0 {
		t.Fatal("build/place stage artifacts should persist even for RecordPaths configs")
	}
}

func TestDeriveSharesCacheAndClampsWorkers(t *testing.T) {
	eng := New(Options{Workers: 4})
	d := eng.Derive(Options{Workers: 99})
	if got := d.Workers(); got != 4 {
		t.Fatalf("Derive(99).Workers = %d, want clamp to 4", got)
	}
	if got := eng.Derive(Options{Workers: 2}).Workers(); got != 2 {
		t.Fatalf("Derive(2).Workers = %d, want 2", got)
	}
	if got := eng.Derive(Options{}).Workers(); got != 4 {
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
// final record — each as a log write followed by an index write, so
// write 1 is the build artifact's and write 7 the final record's.
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
		{"final record", 7, 0, 3},
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
			t.Errorf("%s: stored %d final / %d stage records, want %d / %d",
				tc.name, s.Puts, s.StagePuts, tc.wantPuts, tc.wantStage)
		}
		st.Close()
	}
}
