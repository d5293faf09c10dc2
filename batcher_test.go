package magicstate

import (
	"context"
	"errors"
	"testing"
	"time"

	"magicstate/internal/store"
)

// TestBatcherCheckpointAcrossProcesses simulates two process lifetimes
// sharing one checkpoint directory: the second Batcher must answer the
// whole grid from disk and compute nothing new.
func TestBatcherCheckpointAcrossProcesses(t *testing.T) {
	dir := t.TempDir()
	points := []BatchPoint{
		{Spec: FactorySpec{Capacity: 2, Levels: 1}},
		{Spec: FactorySpec{Capacity: 4, Levels: 1}},
		{Spec: FactorySpec{Capacity: 2, Levels: 1}}, // duplicate of [0]
	}

	b1, err := NewBatcher(BatcherOptions{Parallelism: 2, Checkpoint: dir})
	if err != nil {
		t.Fatal(err)
	}
	first, err := b1.OptimizeBatch(points, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st1 := b1.Stats()
	if st1.StoredRecords != 2 {
		t.Fatalf("first batcher stored %d records, want 2 unique points", st1.StoredRecords)
	}
	if st1.DiskHits != 0 {
		t.Fatalf("first batcher DiskHits = %d, want 0", st1.DiskHits)
	}
	if err := b1.Close(); err != nil {
		t.Fatal(err)
	}

	b2, err := NewBatcher(BatcherOptions{Parallelism: 2, Checkpoint: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	second, err := b2.OptimizeBatch(points, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st2 := b2.Stats()
	if st2.DiskHits != 2 {
		t.Fatalf("second batcher DiskHits = %d, want 2", st2.DiskHits)
	}
	if st2.StoredRecords != 2 {
		t.Fatalf("second batcher stored %d records, want the same 2", st2.StoredRecords)
	}
	if st2.CheckpointDir != dir {
		t.Fatalf("CheckpointDir = %q, want %q", st2.CheckpointDir, dir)
	}
	for i := range first {
		if *first[i] != *second[i] {
			t.Fatalf("point %d: disk-served result %+v differs from computed %+v", i, *second[i], *first[i])
		}
	}

	// Single points share the same tier.
	res, err := b2.Optimize(FactorySpec{Capacity: 4, Levels: 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if *res != *first[1] {
		t.Fatalf("Optimize through batcher = %+v, want %+v", *res, *first[1])
	}

	// The durable tier is fixed at construction: asking a batch to use a
	// different checkpoint directory is an error, not a silent no-op.
	if _, err := b2.OptimizeBatch(points, BatchOptions{Checkpoint: t.TempDir()}); err == nil {
		t.Fatal("OptimizeBatch accepted a per-batch checkpoint different from the batcher's")
	}
	if _, err := b2.OptimizeBatch(points, BatchOptions{Checkpoint: dir}); err != nil {
		t.Fatalf("OptimizeBatch rejected the batcher's own checkpoint dir: %v", err)
	}
}

// TestBatcherTraceBypassesStore checks that trace-carrying runs still
// return their rendered trace when routed through a store-backed
// batcher (the durable tier must not swallow simulation artifacts).
func TestBatcherTraceBypassesStore(t *testing.T) {
	b, err := NewBatcher(BatcherOptions{Parallelism: 1, Checkpoint: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	spec := FactorySpec{Capacity: 2, Levels: 1}
	if _, err := b.Optimize(spec, Options{}); err != nil {
		t.Fatal(err)
	}
	res, err := b.Optimize(spec, Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == "" {
		t.Fatal("trace run through a store-backed batcher lost its trace")
	}
}

// TestOptimizeBatchCheckpointOption covers the one-shot entry point.
func TestOptimizeBatchCheckpointOption(t *testing.T) {
	dir := t.TempDir()
	points := []BatchPoint{{Spec: FactorySpec{Capacity: 2, Levels: 1}}}
	plain, err := OptimizeBatch(points, BatchOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	ck, err := OptimizeBatch(points, BatchOptions{Parallelism: 1, Checkpoint: dir})
	if err != nil {
		t.Fatal(err)
	}
	again, err := OptimizeBatch(points, BatchOptions{Parallelism: 1, Checkpoint: dir})
	if err != nil {
		t.Fatal(err)
	}
	if *plain[0] != *ck[0] || *plain[0] != *again[0] {
		t.Fatalf("checkpointed results diverge: %+v / %+v / %+v", *plain[0], *ck[0], *again[0])
	}
}

// TestOptimizeBatchReportsCloseError: OptimizeBatch closes the
// checkpoint store it opened, and a failed final sync there fails the
// batch instead of vanishing. The batch itself still ran and persisted.
func TestOptimizeBatchReportsCloseError(t *testing.T) {
	dir := t.TempDir()
	points := []BatchPoint{{Spec: FactorySpec{Capacity: 2, Levels: 1}}}
	b, err := NewBatcher(BatcherOptions{Parallelism: 1, Checkpoint: dir, StoreFaults: "failsync=1"})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := b.batchOnce(points, BatchOptions{}); !errors.Is(err, store.ErrInjected) || res != nil {
		t.Fatalf("batch over a store whose close fails = %v, %v; want no results and the injected fault", res, err)
	}
	b, err = NewBatcher(BatcherOptions{Parallelism: 1, Checkpoint: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if got := b.Stats().StoredRecords; got != 1 {
		t.Fatalf("reopened checkpoint holds %d records, want 1", got)
	}
}

// TestBatcherLookupCountsMemoryHits: a Lookup answered from the
// in-memory memo is a memory hit in Stats, as a repeat Optimize is. A
// Lookup that finds nothing moves no counter.
func TestBatcherLookupCountsMemoryHits(t *testing.T) {
	b, err := NewBatcher(BatcherOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	spec := FactorySpec{Capacity: 4, Levels: 1}
	if _, ok := b.Lookup(spec, Options{}); ok {
		t.Fatal("Lookup hit before any computation")
	}
	if _, err := b.Optimize(spec, Options{}); err != nil {
		t.Fatal(err)
	}
	before := b.Stats()
	if before.MemoryHits != 0 || before.MemoryMisses != 1 {
		t.Fatalf("after one Optimize: hits/misses %d/%d, want 0/1", before.MemoryHits, before.MemoryMisses)
	}
	for i := 1; i <= 2; i++ {
		if _, ok := b.Lookup(spec, Options{}); !ok {
			t.Fatal("Lookup missed a computed point")
		}
		st := b.Stats()
		if st.MemoryHits != before.MemoryHits+int64(i) || st.MemoryMisses != before.MemoryMisses {
			t.Fatalf("after %d repeat Lookups: hits/misses %d/%d, want %d/%d",
				i, st.MemoryHits, st.MemoryMisses, before.MemoryHits+int64(i), before.MemoryMisses)
		}
	}
}

// TestBatcherLookup covers the admission-free service fast path: Lookup
// answers only already-paid points.
func TestBatcherLookup(t *testing.T) {
	b, err := NewBatcher(BatcherOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	spec := FactorySpec{Capacity: 4, Levels: 1}
	if _, ok := b.Lookup(spec, Options{}); ok {
		t.Fatal("Lookup hit before any computation")
	}
	want, err := b.Optimize(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := b.Lookup(spec, Options{})
	if !ok {
		t.Fatal("Lookup missed a computed point")
	}
	if *got != *want {
		t.Fatalf("Lookup = %+v, want %+v", got, want)
	}
	// Trace results never come from the cache tier (paths are not
	// persisted); Lookup must refuse rather than serve a pathless result.
	if _, ok := b.Lookup(spec, Options{Trace: true}); ok {
		t.Fatal("Lookup served a Trace point from the pathless cache")
	}
}

// TestBatcherOptimizeContextCancel: a cancelled context surfaces as a
// context error and the point is not cached.
func TestBatcherOptimizeContextCancel(t *testing.T) {
	b, err := NewBatcher(BatcherOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := FactorySpec{Capacity: 4, Levels: 1}
	if _, err := b.OptimizeContext(ctx, spec, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("OptimizeContext(cancelled) = %v, want context.Canceled", err)
	}
	if _, ok := b.Lookup(spec, Options{}); ok {
		t.Fatal("cancelled computation was cached")
	}
	if _, err := b.Optimize(spec, Options{}); err != nil {
		t.Fatalf("Optimize after cancelled attempt: %v", err)
	}
}

// TestBatcherSharedPointSurvivesCancel: two batches share one uncached
// force-directed point; cancelling the batch that started its
// computation must not fail the other, whose context is still live.
func TestBatcherSharedPointSurvivesCancel(t *testing.T) {
	b, err := NewBatcher(BatcherOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	pts := []BatchPoint{{Spec: FactorySpec{Capacity: 64, Levels: 1}, Opts: Options{Seed: 5}.WithStrategy(ForceDirected)}}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	first := make(chan error, 1)
	go func() {
		_, err := b.OptimizeBatch(pts, BatchOptions{Context: ctx})
		first <- err
	}()
	for b.Stats().MemoryMisses == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	type outcome struct {
		res []*Result
		err error
	}
	second := make(chan outcome, 1)
	go func() {
		res, err := b.OptimizeBatch(pts, BatchOptions{})
		second <- outcome{res, err}
	}()
	// The second batch has joined once the memo counts its hit.
	for b.Stats().MemoryHits == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	if err := <-first; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch = %v, want context.Canceled", err)
	}
	got := <-second
	if got.err != nil {
		t.Fatalf("live batch failed with %v, want the shared result", got.err)
	}
	if len(got.res) != 1 || got.res[0].Latency <= 0 {
		t.Fatalf("live batch result = %+v", got.res)
	}
}
