package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"magicstate/internal/store"
	"magicstate/internal/sweep"
)

// TestResumeByteIdentical is the checkpoint/resume acceptance test: a
// sweep killed mid-run (simulated by truncating the store's record log
// at an arbitrary point, exactly the state a SIGKILL leaves behind) and
// then restarted against the same store must serve every surviving
// point from disk, recompute only the lost ones, and render artifacts
// byte-identical to an uninterrupted run without any store at all.
func TestResumeByteIdentical(t *testing.T) {
	const seed = 3
	orig := Engine()
	defer SetEngine(orig)

	// Ground truth: a fresh serial run with no durable tier.
	SetEngine(sweep.New(sweep.Options{Workers: 1}))
	want := renderAll(t, seed)

	// First run with a checkpoint store: populates it.
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	SetEngine(sweep.New(sweep.Options{Workers: 1, Store: st}))
	first := renderAll(t, seed)
	if !bytes.Equal(want, first) {
		t.Fatal("store-backed run differs from plain run")
	}
	// Count reports only: the staged pipeline also persists upstream
	// artifacts, but the resume contract is stated in points (one
	// report each).
	stored := st.Stats().Records
	if stored == 0 {
		t.Fatal("store-backed run persisted nothing")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Kill: drop the tail of the record log mid-record.
	logPath := filepath.Join(dir, "stages.log")
	info, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(logPath, info.Size()*2/3); err != nil {
		t.Fatal(err)
	}

	// Resume: fresh process state (new engine, reopened store).
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	survivors := st2.Stats().Records
	if survivors == 0 || survivors >= stored {
		t.Fatalf("truncation recovered %d of %d records; want a proper subset", survivors, stored)
	}
	eng := sweep.New(sweep.Options{Workers: 1, Store: st2})
	SetEngine(eng)
	resumed := renderAll(t, seed)
	if !bytes.Equal(want, resumed) {
		t.Fatalf("resumed artifacts differ from uninterrupted run:\n--- fresh ---\n%s\n--- resumed ---\n%s", want, resumed)
	}
	if hits := int(eng.DiskHits()); hits != survivors {
		t.Fatalf("resume served %d points from disk, want all %d survivors", hits, survivors)
	}
	if puts := int(st2.Stats().Puts); puts != stored-survivors {
		t.Fatalf("resume recomputed %d points, want exactly the %d lost ones", puts, stored-survivors)
	}
	if err := st2.Close(); err != nil { // one writer per directory at a time
		t.Fatal(err)
	}

	// A second resume against the now-complete store recomputes nothing.
	st3, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	eng3 := sweep.New(sweep.Options{Workers: 4, Store: st3})
	SetEngine(eng3)
	again := renderAll(t, seed)
	if !bytes.Equal(want, again) {
		t.Fatal("fully-cached rerun differs from fresh run")
	}
	if puts := st3.Stats().Puts; puts != 0 {
		t.Fatalf("fully-cached rerun still recomputed %d points", puts)
	}
	if hits := int(eng3.DiskHits()); hits != stored {
		t.Fatalf("fully-cached rerun took %d disk hits, want %d", hits, stored)
	}
}
