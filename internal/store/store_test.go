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

// recordPayload is fill's i-th payload: a framed report artifact whose
// length varies with i.
func recordPayload(i int) []byte {
	return stageWrap(core.StageReport, core.EncodeReportArtifact(&core.Report{Latency: i, Area: 1 + i, Stalls: 1 << (3 * (i % 17))}))
}

// fill writes n records with deterministic keys and payloads and
// returns the keys in insertion order.
func fill(t *testing.T, s *Store, n int) []Key {
	t.Helper()
	keys := make([]Key, n)
	for i := 0; i < n; i++ {
		keys[i] = recordKey(i)
		if err := s.put(keys[i], recordPayload(i)); err != nil {
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
	if err := s.put(keys[3], []byte("overwrite")); err != nil {
		t.Fatal(err)
	}
	if p, _ := s.get(keys[3]); bytes.Equal(p, []byte("overwrite")) {
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
		p, ok := s2.get(k)
		if !ok {
			t.Fatalf("record %d missing after reopen", i)
		}
		if !bytes.Equal(p, recordPayload(i)) {
			t.Fatalf("record %d = %q, want %q", i, p, recordPayload(i))
		}
	}
	// A reopened store keeps appending.
	if err := s2.put(recordKey(99), recordPayload(99)); err != nil {
		t.Fatal(err)
	}

	// While s2 is open, a second open of the same directory is refused
	// (two writers would interleave appends and corrupt both files).
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
// for a log truncated at any byte boundary, Open must recover exactly
// the records whose payloads are fully contained in the remaining
// prefix, and leave the store appendable.
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
	idxBytes, err := os.ReadFile(filepath.Join(master, idxName))
	if err != nil {
		t.Fatal(err)
	}

	// Record extents, recomputed from the index, give the expected
	// survivor count per truncation point.
	ends := make([]int64, n)
	for i := 0; i < n; i++ {
		e := idxBytes[i*entrySize : (i+1)*entrySize]
		off := int64(uint64(e[32]) | uint64(e[33])<<8 | uint64(e[34])<<16 | uint64(e[35])<<24 |
			uint64(e[36])<<32 | uint64(e[37])<<40 | uint64(e[38])<<48 | uint64(e[39])<<56)
		length := int64(uint32(e[40]) | uint32(e[41])<<8 | uint32(e[42])<<16 | uint32(e[43])<<24)
		ends[i] = off + length
	}

	for cut := 0; cut <= len(logBytes); cut++ {
		dir := filepath.Join(master, fmt.Sprintf("cut%d", cut))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, logName), logBytes[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, idxName), idxBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		want := 0
		for want < n && ends[want] <= int64(cut) {
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
			if _, ok := rs.get(keys[i]); !ok {
				t.Fatalf("cut %d: surviving record %d missing", cut, i)
			}
		}
		// The recovered store must accept appends again.
		if err := rs.put(recordKey(1000+cut), recordPayload(0)); err != nil {
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

// TestRecoverIdxTruncatedAtEveryByte drives the same property on the
// index file: a torn index entry must drop exactly the records at and
// after the tear.
func TestRecoverIdxTruncatedAtEveryByte(t *testing.T) {
	const n = 8
	master := t.TempDir()
	s, err := Open(master)
	if err != nil {
		t.Fatal(err)
	}
	keys := fill(t, s, n)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	logBytes, _ := os.ReadFile(filepath.Join(master, logName))
	idxBytes, _ := os.ReadFile(filepath.Join(master, idxName))

	for cut := 0; cut <= len(idxBytes); cut++ {
		dir := filepath.Join(master, fmt.Sprintf("icut%d", cut))
		os.MkdirAll(dir, 0o755)
		os.WriteFile(filepath.Join(dir, logName), logBytes, 0o644)
		os.WriteFile(filepath.Join(dir, idxName), idxBytes[:cut], 0o644)
		want := cut / entrySize
		rs, err := Open(dir)
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		if got := liveRecords(rs); got != want {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, got, want)
		}
		for i := 0; i < want; i++ {
			if _, ok := rs.get(keys[i]); !ok {
				t.Fatalf("cut %d: surviving record %d missing", cut, i)
			}
		}
		rs.Close()
		os.RemoveAll(dir)
	}
}

// TestRecoverCorruptPayload flips a byte inside an early payload: every
// record from that payload on must be dropped (the log is truncated
// back, so later extents no longer validate), earlier ones kept.
func TestRecoverCorruptPayload(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := fill(t, s, 6)
	s.Close()

	logPath := filepath.Join(dir, logName)
	logBytes, _ := os.ReadFile(logPath)
	idxBytes, _ := os.ReadFile(filepath.Join(dir, idxName))
	// Corrupt a byte inside record 2's payload.
	e := idxBytes[2*entrySize : 3*entrySize]
	off := int(uint32(e[32]) | uint32(e[33])<<8 | uint32(e[34])<<16 | uint32(e[35])<<24)
	logBytes[off] ^= 0xff
	os.WriteFile(logPath, logBytes, 0o644)

	rs, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if got := liveRecords(rs); got != 2 {
		t.Fatalf("recovered %d records, want 2", got)
	}
	for i := 0; i < 2; i++ {
		if _, ok := rs.get(keys[i]); !ok {
			t.Fatalf("record %d missing", i)
		}
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
				if err := s.put(k, recordPayload(i)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				if p, ok := s.get(k); !ok || !bytes.Equal(p, recordPayload(i)) {
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

// TestCorruptPayloadAfterOpenIsMiss: get reads payloads from the log,
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
	off := s.mem[keys[2]].off
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if p, ok := s.get(keys[2]); ok {
		t.Fatalf("get served a corrupted payload %q", p)
	}
	for _, i := range []int{0, 1, 3} {
		if _, ok := s.get(keys[i]); !ok {
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
	if _, ok := s.get(keys[0]); !ok {
		t.Fatal("get missed a stored record before Close")
	}
	s.Close()
	if _, ok := s.get(keys[0]); ok {
		t.Fatal("get after Close reported a hit")
	}
}
