package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"magicstate/internal/core"
)

// recordKey is the key of fill's i-th record: a report-stage key, the
// kind every pipeline point is stored under.
func recordKey(i int) Key {
	return StageKeyOf(core.StageReport, core.Config{K: 2 + i, Levels: 1, Seed: int64(i)})
}

// recordPayload is fill's i-th payload: a report artifact whose length
// varies with i.
func recordPayload(i int) []byte {
	return core.EncodeReportArtifact(&core.Report{Latency: i, Area: 1 + i, Stalls: 1 << (3 * (i % 17))})
}

// recordEnd is the log offset just past fill's i-th record.
func recordEnd(i int) int64 {
	var end int64
	for j := 0; j <= i; j++ {
		end += int64(headerSize + len(recordPayload(j)))
	}
	return end
}

// fill writes n records with deterministic keys and payloads and
// returns the keys in insertion order.
func fill(t *testing.T, s *Store, n int) []Key {
	t.Helper()
	keys := make([]Key, n)
	for i := 0; i < n; i++ {
		keys[i] = recordKey(i)
		if err := s.put(keys[i], core.StageReport, recordPayload(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	return keys
}

// liveRecords is the store's live record count, reports and the other
// stage artifacts together.
func liveRecords(s *Store) int {
	st := s.Stats()
	return st.Records + st.StageRecords
}

func TestPutGetReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := fill(t, s, 25)
	if got := liveRecords(s); got != 25 {
		t.Fatalf("Len = %d, want 25", got)
	}
	// Duplicate put is a no-op.
	if err := s.put(keys[3], core.StageReport, []byte("overwrite")); err != nil {
		t.Fatal(err)
	}
	if p, _ := s.get(keys[3], core.StageReport); bytes.Equal(p, []byte("overwrite")) {
		t.Fatal("duplicate put overwrote an existing record")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := liveRecords(s2); got != 25 {
		t.Fatalf("reopened Len = %d, want 25", got)
	}
	for i, k := range keys {
		p, ok := s2.get(k, core.StageReport)
		if !ok {
			t.Fatalf("record %d missing after reopen", i)
		}
		if !bytes.Equal(p, recordPayload(i)) {
			t.Fatalf("record %d = %q, want %q", i, p, recordPayload(i))
		}
	}
	// A reopened store keeps appending.
	if err := s2.put(recordKey(99), core.StageReport, recordPayload(99)); err != nil {
		t.Fatal(err)
	}

	// While s2 is open, a second open of the same directory is refused
	// (two writers would interleave appends and corrupt the log).
	if dup, err := Open(dir); err == nil {
		dup.Close()
		t.Fatal("second Open of an open directory succeeded")
	}

	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got := liveRecords(s3); got != 26 {
		t.Fatalf("Len after append+reopen = %d, want 26", got)
	}
}

// TestRecoverLogTruncatedAtEveryByte is the crash-safety property test:
// for a log truncated at any byte boundary — inside a header or inside
// a payload — Open must recover exactly the whole records before the
// cut, and leave the store appendable.
func TestRecoverLogTruncatedAtEveryByte(t *testing.T) {
	const n = 12
	master := t.TempDir()
	s, err := Open(master)
	if err != nil {
		t.Fatal(err)
	}
	keys := fill(t, s, n)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	logBytes, err := os.ReadFile(filepath.Join(master, logName))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(logBytes)) != recordEnd(n-1) {
		t.Fatalf("log holds %d bytes, want %d", len(logBytes), recordEnd(n-1))
	}

	for cut := 0; cut <= len(logBytes); cut++ {
		dir := filepath.Join(master, fmt.Sprintf("cut%d", cut))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, logName), logBytes[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		want := 0
		for want < n && recordEnd(want) <= int64(cut) {
			want++
		}
		rs, err := Open(dir)
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		if got := liveRecords(rs); got != want {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, got, want)
		}
		for i := 0; i < want; i++ {
			if _, ok := rs.get(keys[i], core.StageReport); !ok {
				t.Fatalf("cut %d: surviving record %d missing", cut, i)
			}
		}
		// The recovered store must accept appends again.
		if err := rs.put(recordKey(1000+cut), core.StageReport, recordPayload(0)); err != nil {
			t.Fatalf("cut %d: put after recovery: %v", cut, err)
		}
		if err := rs.Close(); err != nil {
			t.Fatalf("cut %d: Close: %v", cut, err)
		}
		rs2, err := Open(dir)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if got := liveRecords(rs2); got != want+1 {
			t.Fatalf("cut %d: after append+reopen got %d records, want %d", cut, got, want+1)
		}
		rs2.Close()
		os.RemoveAll(dir)
	}
}

// TestRecoverIdxTruncatedAtEveryByte covers a directory written before
// the single-file layout: whatever its old store.idx holds, cut at any
// byte, Open recovers every record of stages.log, and neither store.idx
// nor store.log is read, truncated or deleted by Open, put or Close.
func TestRecoverIdxTruncatedAtEveryByte(t *testing.T) {
	const n = 4
	master := t.TempDir()
	s, err := Open(master)
	if err != nil {
		t.Fatal(err)
	}
	keys := fill(t, s, n)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	logBytes, err := os.ReadFile(filepath.Join(master, logName))
	if err != nil {
		t.Fatal(err)
	}
	// Stand-ins for the old files: record bytes, so a reader that
	// mistook either file for the log would find valid-looking frames.
	oldIdx := append([]byte(nil), logBytes...)
	oldLog := append([]byte(nil), logBytes[:recordEnd(0)]...)

	for cut := 0; cut <= len(oldIdx); cut++ {
		dir := filepath.Join(master, fmt.Sprintf("icut%d", cut))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, b := range map[string][]byte{logName: logBytes, "store.idx": oldIdx[:cut], "store.log": oldLog} {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		rs, err := Open(dir)
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		if got := liveRecords(rs); got != n {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, got, n)
		}
		for i := 0; i < n; i++ {
			if _, ok := rs.get(keys[i], core.StageReport); !ok {
				t.Fatalf("cut %d: record %d missing", cut, i)
			}
		}
		if err := rs.put(recordKey(1000+cut), core.StageReport, recordPayload(0)); err != nil {
			t.Fatalf("cut %d: put: %v", cut, err)
		}
		if err := rs.Close(); err != nil {
			t.Fatalf("cut %d: Close: %v", cut, err)
		}
		for name, want := range map[string][]byte{"store.idx": oldIdx[:cut], "store.log": oldLog} {
			got, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatalf("cut %d: %s: %v", cut, name, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("cut %d: %s changed: %d bytes, want %d", cut, name, len(got), len(want))
			}
		}
		os.RemoveAll(dir)
	}
}

// TestRecoverCorruptPayload flips a byte inside record 2's header, then
// inside its payload: every record from record 2 on must be dropped
// (the log is truncated back there), earlier ones kept.
func TestRecoverCorruptPayload(t *testing.T) {
	for _, tc := range []struct {
		name string
		off  int64
	}{
		{"header", recordEnd(1) + 33},
		{"payload", recordEnd(1) + headerSize},
	} {
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		keys := fill(t, s, 6)
		s.Close()

		logPath := filepath.Join(dir, logName)
		logBytes, _ := os.ReadFile(logPath)
		logBytes[tc.off] ^= 0xff
		os.WriteFile(logPath, logBytes, 0o644)

		rs, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got := liveRecords(rs); got != 2 {
			t.Fatalf("%s: recovered %d records, want 2", tc.name, got)
		}
		for i := 0; i < 2; i++ {
			if _, ok := rs.get(keys[i], core.StageReport); !ok {
				t.Fatalf("%s: record %d missing", tc.name, i)
			}
		}
		if fi, _ := os.Stat(logPath); fi.Size() != recordEnd(1) {
			t.Fatalf("%s: log is %d bytes after recovery, want %d", tc.name, fi.Size(), recordEnd(1))
		}
		rs.Close()
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := recordKey(i) // all workers contend on the same keys
				if err := s.put(k, core.StageReport, recordPayload(i)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				if p, ok := s.get(k, core.StageReport); !ok || !bytes.Equal(p, recordPayload(i)) {
					t.Errorf("get(%d) = %q, %v", i, p, ok)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := liveRecords(s); got != 50 {
		t.Fatalf("Len = %d, want 50", got)
	}
	st := s.Stats()
	if st.Puts != 50 || st.Records != 50 {
		t.Fatalf("Stats = %+v, want 50 puts and records", st)
	}
}

func TestReportRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cfg := core.Config{K: 4, Levels: 2, Reuse: true, Strategy: core.StrategyStitch, Seed: 7}
	rep := &core.Report{
		Config: cfg, Strategy: "HS", Latency: 1234, Area: 56, Volume: 1234 * 56,
		CriticalLatency: 900, CriticalVolume: 900 * 56, PermLatency: 77, Stalls: 3,
	}
	if err := s.PutStage(core.StageReport, cfg, core.EncodeReportArtifact(rep)); err != nil {
		t.Fatal(err)
	}
	body, ok := s.GetStage(core.StageReport, cfg)
	if !ok {
		t.Fatal("GetStage missed a stored report")
	}
	got, err := core.DecodeReportArtifact(cfg, body)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *rep {
		t.Fatalf("round trip = %+v, want %+v", *got, *rep)
	}
	// A report never answers for its own simulation, which shares its
	// scope.
	if _, ok := s.GetStage(core.StageSim, cfg); ok {
		t.Fatal("the sim stage was answered from a report record")
	}

	// Uncacheable configs are skipped on both sides.
	traced := cfg
	traced.RecordPaths = true
	if err := s.PutStage(core.StageReport, traced, core.EncodeReportArtifact(rep)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetStage(core.StageReport, traced); ok {
		t.Fatal("GetStage served a RecordPaths report from disk")
	}
	if got := liveRecords(s); got != 1 {
		t.Fatalf("Len = %d, want 1 (uncacheable config must not be stored)", got)
	}
}

func TestPutAfterClose(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.PutStage(core.StageReport, core.Config{K: 2, Levels: 1}, []byte("x")); err != ErrClosed {
		t.Fatalf("PutStage after Close = %v, want ErrClosed", err)
	}
}

// TestCorruptPayloadAfterOpenIsMiss: get reads records from the log,
// so bytes damaged on disk after Open fail their CRC and read as a
// miss, while the other records keep answering.
func TestCorruptPayloadAfterOpenIsMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	keys := fill(t, s, 4)
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	off := s.mem[keys[2]].off + headerSize
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if p, ok := s.get(keys[2], core.StageReport); ok {
		t.Fatalf("get served a corrupted payload %q", p)
	}
	for _, i := range []int{0, 1, 3} {
		if _, ok := s.get(keys[i], core.StageReport); !ok {
			t.Fatalf("record %d missing after a neighbour's corruption", i)
		}
	}
}

func TestGetAfterClose(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keys := fill(t, s, 2)
	if _, ok := s.get(keys[0], core.StageReport); !ok {
		t.Fatal("get missed a stored record before Close")
	}
	s.Close()
	if _, ok := s.get(keys[0], core.StageReport); ok {
		t.Fatal("get after Close reported a hit")
	}
}

// TestStageMismatchIsMiss: a record whose header names another stage
// than the one asked for is a miss, whether the header was just
// written or read back from disk on Open. The key preimage names the
// stage, so only foreign or damaged bytes can put such a record under
// a key; the check keeps them from ever answering.
func TestStageMismatchIsMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{K: 4, Levels: 2, Strategy: core.StrategyLinear}
	body := core.EncodeReportArtifact(&core.Report{Latency: 10, Area: 3})
	if err := s.put(StageKeyOf(core.StageReport, cfg), core.StageSim, body); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetStage(core.StageReport, cfg); ok {
		t.Fatal("a sim-stage record answered a report lookup")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := liveRecords(s); got != 1 {
		t.Fatalf("reopened store holds %d records, want 1", got)
	}
	if _, ok := s.GetStage(core.StageReport, cfg); ok {
		t.Fatal("a sim-stage record read back from disk answered a report lookup")
	}
	if _, ok := s.get(StageKeyOf(core.StageReport, cfg), core.StageSim); !ok {
		t.Fatal("the record is not readable under the stage its header names")
	}
}
