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
	if err := s.PutStage(core.StageReport, core.Config{K: 3, Levels: 1}, []byte("not a report")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := Scrub(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	// CRC-valid but not a report: a soft finding, not a truncation.
	if rep.Truncated || len(rep.BadRecords) != 1 || !strings.Contains(rep.BadRecords[0], "stage report") {
		t.Fatalf("scrub = %+v, want one bad report record and no truncation", rep)
	}
}

// TestScrubFlagsUnframedRecords: a store written before reports became
// stage records holds unframed JSON payloads. Each is a soft finding,
// never a chain break: the records around it still verify, and a
// reopened store keeps serving them while the old payload answers
// nothing.
func TestScrubFlagsUnframedRecords(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fill(t, s, 2)
	legacy := core.Config{K: 4, Levels: 2, Strategy: core.StrategyLinear}
	if err := s.put(StageKeyOf(core.StageReport, legacy), []byte(`{"strategy":"Line","latency":1234,"area":56,"volume":69104}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.put(recordKey(2), recordPayload(2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := Scrub(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Truncated || rep.Valid != 4 || rep.Reports != 3 {
		t.Fatalf("scrub = %+v, want 4 valid entries, 3 reports and no truncation", rep)
	}
	if len(rep.BadRecords) != 1 || !strings.Contains(rep.BadRecords[0], "entry 2") ||
		!strings.Contains(rep.BadRecords[0], "not a framed stage record") {
		t.Fatalf("BadRecords = %q, want one finding naming unframed entry 2", rep.BadRecords)
	}
	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, ok := s.GetStage(core.StageReport, legacy); ok {
		t.Fatal("an unframed payload answered a report lookup")
	}
	for i := 0; i < 3; i++ {
		if p, ok := s.get(recordKey(i)); !ok || string(p) != string(recordPayload(i)) {
			t.Fatalf("record %d around the unframed payload = %q, %v", i, p, ok)
		}
	}
	if st := s.Stats(); st.Records != 3 || st.StageRecords != 1 {
		t.Fatalf("stats = %+v, want 3 reports and the unframed payload counted apart", st)
	}
}

// TestScrubWalksStageRecords: scrub must tell reports from the other
// stage records, count them, and soft-flag a stage body that no longer decodes
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
		t.Fatalf("scrub = %+v, want 5 valid entries and no truncation", rep)
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
// report. Scrub must report the torn entry, repair must drop exactly
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
