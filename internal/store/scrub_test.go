package store

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"magicstate/internal/core"
)

// buildScrubDir writes a store of n JSON records and returns its dir.
func buildScrubDir(t *testing.T, n int) string {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fill(t, s, n)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestScrubCleanStore(t *testing.T) {
	dir := buildScrubDir(t, 10)
	rep, err := Scrub(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.Entries != 10 || rep.Valid != 10 {
		t.Fatalf("clean store scrub = %+v", rep)
	}
}

func TestScrubDetectsAndRepairsCorruptTail(t *testing.T) {
	dir := buildScrubDir(t, 10)
	// Corrupt the payload of the 8th record: everything from entry 7 on
	// is lost, entries 0-6 survive.
	logPath := filepath.Join(dir, logName)
	idx, err := os.ReadFile(filepath.Join(dir, idxName))
	if err != nil {
		t.Fatal(err)
	}
	logData, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(0)
	for i := 0; i < 7; i++ {
		e := idx[i*entrySize : (i+1)*entrySize]
		off += int64(uint32(e[40]) | uint32(e[41])<<8 | uint32(e[42])<<16 | uint32(e[43])<<24)
	}
	logData[off] ^= 0xff
	if err := os.WriteFile(logPath, logData, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := Scrub(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() || !rep.Truncated || rep.Valid != 7 {
		t.Fatalf("scrub of corrupted store = %+v", rep)
	}
	if !strings.Contains(rep.Reason, "entry 7") {
		t.Fatalf("reason %q does not name entry 7", rep.Reason)
	}
	// Dry run must not have touched the files.
	if fi, _ := os.Stat(logPath); fi.Size() != int64(len(logData)) {
		t.Fatal("scrub without repair modified the log")
	}

	rep, err = Scrub(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Repaired || rep.Valid != 7 {
		t.Fatalf("repair scrub = %+v", rep)
	}
	// After repair the store is clean and opens with the 7 survivors.
	rep, err = Scrub(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.Entries != 7 {
		t.Fatalf("post-repair scrub = %+v", rep)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := liveRecords(s); got != 7 {
		t.Fatalf("post-repair Len = %d, want 7", got)
	}
}

func TestScrubFlagsUndecodablePayloads(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := KeyOf(core.Config{K: 3, Levels: 1})
	if err := s.Put(k, []byte("not json at all")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := Scrub(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	// CRC-valid but not a record: a soft finding, not a truncation.
	if rep.Truncated || len(rep.BadRecords) != 1 {
		t.Fatalf("scrub = %+v, want one bad record and no truncation", rep)
	}
}

// TestScrubWalksStageRecords: scrub must tell stage records from final
// ones, count them, and soft-flag a stage body that no longer decodes
// under its stage codec — without truncating anything, since the frames
// themselves are CRC-clean.
func TestScrubWalksStageRecords(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fill(t, s, 3)
	cfg := core.Config{K: 2, Levels: 1, Strategy: core.StrategyLinear}
	b, err := core.BuildStage(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutStage(core.StageBuild, cfg, core.EncodeBuildArtifact(b)); err != nil {
		t.Fatal(err)
	}
	// A stage frame whose body is garbage: CRC-valid on disk, so it is a
	// writer bug, not corruption — a soft finding naming the stage.
	rot := core.Config{K: 3, Levels: 1, Strategy: core.StrategyLinear}
	if err := s.Put(StageKeyOf(core.StagePlace, rot), stageWrap(core.StagePlace, []byte("not a place artifact"))); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := Scrub(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Truncated || rep.Valid != 5 {
		t.Fatalf("scrub = %+v, want 5 valid entries and no truncation", rep)
	}
	if rep.StageRecords != 2 {
		t.Fatalf("StageRecords = %d, want 2", rep.StageRecords)
	}
	if len(rep.BadRecords) != 1 || !strings.Contains(rep.BadRecords[0], "stage place") {
		t.Fatalf("BadRecords = %q, want one finding naming stage place", rep.BadRecords)
	}
}

// TestScrubRepairsTornTailInsideStageArtifact: a crash mid-append can
// tear the log inside a stage artifact's payload just as inside a JSON
// record. Scrub must report the torn entry, repair must drop exactly
// it, and the reopened store must miss on that stage and keep everything
// before it.
func TestScrubRepairsTornTailInsideStageArtifact(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fill(t, s, 3)
	cfg := core.Config{K: 2, Levels: 1, Strategy: core.StrategyLinear}
	b, err := core.BuildStage(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutStage(core.StageBuild, cfg, core.EncodeBuildArtifact(b)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail a few bytes short: the cut lands inside the stage
	// artifact payload, which was appended last.
	logPath := filepath.Join(dir, logName)
	fi, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(logPath, fi.Size()-4); err != nil {
		t.Fatal(err)
	}

	rep, err := Scrub(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Truncated || rep.Valid != 3 || rep.StageRecords != 0 {
		t.Fatalf("scrub of torn stage tail = %+v, want 3 valid finals and no stage records", rep)
	}
	if !strings.Contains(rep.Reason, "entry 3") {
		t.Fatalf("reason %q does not name the torn entry", rep.Reason)
	}
	if rep, err = Scrub(dir, true); err != nil || !rep.Repaired {
		t.Fatalf("repair scrub = %+v, %v", rep, err)
	}
	if rep, err = Scrub(dir, false); err != nil || !rep.Clean() || rep.Entries != 3 {
		t.Fatalf("post-repair scrub = %+v, %v", rep, err)
	}
	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, ok := s.GetStage(core.StageBuild, cfg); ok {
		t.Fatal("torn stage artifact survived the repair")
	}
	if st := s.Stats(); st.Records != 3 || st.StageRecords != 0 {
		t.Fatalf("post-repair stats = %+v, want 3 finals and no stage records", st)
	}
}

func TestScrubRefusesOpenStore(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := Scrub(dir, false); err == nil {
		t.Fatal("scrub of an open store directory succeeded")
	}
}

func TestScrubMissingDir(t *testing.T) {
	if _, err := Scrub(filepath.Join(t.TempDir(), "nope"), false); err == nil {
		t.Fatal("scrub of a missing directory succeeded")
	}
}

// TestScrubNamesOrphanLogTail: a crash between a payload's log write
// and its index write leaves log bytes no entry covers. Every entry
// still verifies, so the reason must name the orphan tail itself.
func TestScrubNamesOrphanLogTail(t *testing.T) {
	dir := buildScrubDir(t, 3)
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(`{"orphan":true}`)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := Scrub(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Truncated || rep.Valid != 3 || rep.LogBytes-rep.ValidLogBytes != 15 {
		t.Fatalf("scrub of a store with an orphan log tail = %+v", rep)
	}
	if !strings.Contains(rep.Reason, "15 bytes past the last indexed record") {
		t.Fatalf("reason %q does not name the orphan tail", rep.Reason)
	}
}
