package store

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"magicstate/internal/core"
)

// buildScrubDir writes a store of n report records and returns its dir.
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
	if !rep.Clean() || rep.Valid != 10 || rep.ValidLogBytes != rep.LogBytes || rep.LogBytes != recordEnd(9) {
		t.Fatalf("clean store scrub = %+v", rep)
	}
}

func TestScrubDetectsAndRepairsCorruptTail(t *testing.T) {
	dir := buildScrubDir(t, 10)
	// Corrupt the payload of the 8th record: everything from record 7 on
	// is lost, records 0-6 survive.
	logPath := filepath.Join(dir, logName)
	logData, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	logData[recordEnd(6)+headerSize] ^= 0xff
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
	if !strings.Contains(rep.Reason, "record 7") {
		t.Fatalf("reason %q does not name record 7", rep.Reason)
	}
	// Dry run must not have touched the files.
	if fi, _ := os.Stat(logPath); fi.Size() != int64(len(logData)) {
		t.Fatal("scrub without repair modified the log")
	}

	rep, err = Scrub(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Repaired || rep.Valid != 7 || rep.ValidLogBytes != recordEnd(6) {
		t.Fatalf("repair scrub = %+v", rep)
	}
	// After repair the store is clean and opens with the 7 survivors.
	rep, err = Scrub(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.Valid != 7 {
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
	if err := s.PutStage(core.StageReport, core.Config{K: 3, Levels: 1}, []byte("not a report")); err != nil {
		t.Fatal(err)
	}
	// A stage byte no codec knows: foreign data under a valid header.
	if err := s.put(recordKey(1), core.Stage(9), recordPayload(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := Scrub(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	// CRC-valid but undecodable: soft findings, not a truncation.
	if rep.Truncated || rep.Valid != 2 || len(rep.BadRecords) != 2 ||
		!strings.Contains(rep.BadRecords[0], "record 0") || !strings.Contains(rep.BadRecords[0], "stage report") ||
		!strings.Contains(rep.BadRecords[1], "record 1") || !strings.Contains(rep.BadRecords[1], "stage stage(9)") {
		t.Fatalf("scrub = %+v, want a bad report record, a record of unknown stage and no truncation", rep)
	}
}

// TestScrubWalksStageRecords: scrub must tell reports from the other
// stage records, count them, and soft-flag a stage body that no longer
// decodes under its stage codec — without truncating anything, since
// the records themselves are CRC-clean.
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
	// A stage record whose body is garbage: CRC-valid on disk, so it is
	// a writer bug, not corruption — a soft finding naming the stage.
	rot := core.Config{K: 3, Levels: 1, Strategy: core.StrategyLinear}
	if err := s.PutStage(core.StagePlace, rot, []byte("not a place artifact")); err != nil {
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
		t.Fatalf("scrub = %+v, want 5 valid records and no truncation", rep)
	}
	if rep.Reports != 3 {
		t.Fatalf("Reports = %d, want 3", rep.Reports)
	}
	if len(rep.BadRecords) != 1 || !strings.Contains(rep.BadRecords[0], "stage place") {
		t.Fatalf("BadRecords = %q, want one finding naming stage place", rep.BadRecords)
	}
}

// TestScrubRepairsTornTailInsideStageArtifact: a crash mid-append can
// tear the log inside a build artifact's payload just as inside a
// report. Scrub must report the torn record, repair must drop exactly
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
	if !rep.Truncated || rep.Valid != 3 || rep.Reports != 3 {
		t.Fatalf("scrub of torn stage tail = %+v, want 3 valid reports and nothing else", rep)
	}
	if !strings.Contains(rep.Reason, "record 3") {
		t.Fatalf("reason %q does not name the torn record", rep.Reason)
	}
	if rep, err = Scrub(dir, true); err != nil || !rep.Repaired {
		t.Fatalf("repair scrub = %+v, %v", rep, err)
	}
	if rep, err = Scrub(dir, false); err != nil || !rep.Clean() || rep.Valid != 3 {
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
		t.Fatalf("post-repair stats = %+v, want 3 reports and no other stage records", st)
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
