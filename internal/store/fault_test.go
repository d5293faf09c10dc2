package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"magicstate/internal/core"
)

// fillFaulty puts n records, tolerating injected Put failures, and
// returns the keys alongside the index of the first Put that failed
// (-1 when all landed). Keys match fill's so tests can cross-check.
func fillFaulty(t *testing.T, s *Store, n int) (keys []Key, firstFail int) {
	t.Helper()
	firstFail = -1
	keys = make([]Key, n)
	for i := 0; i < n; i++ {
		keys[i] = recordKey(i)
		err := s.put(keys[i], core.StageReport, recordPayload(i))
		if err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("Put %d failed with a non-injected error: %v", i, err)
			}
			if firstFail < 0 {
				firstFail = i
			}
		}
	}
	return keys, firstFail
}

// TestFaultPlanParse pins the spec grammar the msfud -fault-store flag
// accepts.
func TestFaultPlanParse(t *testing.T) {
	p, err := ParseFaultPlan("failwrite=7,shortwrite=19,failsync=3,stall=10:2ms")
	if err != nil {
		t.Fatal(err)
	}
	if p.FailWriteOp != 7 || p.ShortWriteOp != 19 || p.FailSyncOp != 3 ||
		p.StallEveryOp != 10 || p.Stall != 2*time.Millisecond {
		t.Fatalf("parsed failwrite=%d shortwrite=%d failsync=%d stall=%d:%v",
			p.FailWriteOp, p.ShortWriteOp, p.FailSyncOp, p.StallEveryOp, p.Stall)
	}
	if p, err := ParseFaultPlan(""); err != nil ||
		p.FailWriteOp != 0 || p.ShortWriteOp != 0 || p.FailSyncOp != 0 || p.StallEveryOp != 0 || p.Stall != 0 {
		t.Fatalf("empty spec = %v, %v; want zero plan", p, err)
	}
	for _, bad := range []string{"failwrite", "failwrite=x", "stall=2ms", "stall=0:2ms", "bogus=1"} {
		if _, err := ParseFaultPlan(bad); err == nil {
			t.Errorf("ParseFaultPlan(%q) accepted a bad spec", bad)
		}
	}
}

// TestFaultInjectedWriteIsConfined is the injected-fault extension of
// the byte-truncation property tests: for every write operation n, a
// store whose nth write fails (outright or torn) must (a) surface
// ErrInjected from exactly one Put, (b) keep serving and accepting
// records afterwards — the failed Put rolled the log back to a record
// boundary — and (c) reopen to exactly the records whose Puts reported
// success. Each record is one write, so sweeping n over records+1 hits
// every record and the no-fault control past the end.
func TestFaultInjectedWriteIsConfined(t *testing.T) {
	const n = 20
	for _, mode := range []string{"failwrite", "shortwrite"} {
		for op := 1; op <= n+1; op++ {
			t.Run(fmt.Sprintf("%s_op%d", mode, op), func(t *testing.T) {
				dir := t.TempDir()
				plan, err := ParseFaultPlan(fmt.Sprintf("%s=%d", mode, op))
				if err != nil {
					t.Fatal(err)
				}
				s, err := OpenWithFaults(dir, plan)
				if err != nil {
					t.Fatal(err)
				}
				keys, firstFail := fillFaulty(t, s, n)
				wantFail := -1
				if op <= n {
					wantFail = op - 1 // records are 0-based, ops 1-based
				}
				if firstFail != wantFail {
					t.Fatalf("Put %d failed, want %d", firstFail, wantFail)
				}
				// Exactly the non-failed records are live, in memory and on
				// a clean reopen (rollback must leave aligned files).
				wantLive := n
				if wantFail >= 0 {
					wantLive = n - 1
				}
				if got := liveRecords(s); got != wantLive {
					t.Fatalf("live records = %d, want %d", got, wantLive)
				}
				if err := s.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
				rs, err := Open(dir)
				if err != nil {
					t.Fatalf("reopen after injected fault: %v", err)
				}
				defer rs.Close()
				if got := liveRecords(rs); got != wantLive {
					t.Fatalf("recovered %d records, want %d", got, wantLive)
				}
				for i, k := range keys {
					_, ok := rs.get(k, core.StageReport)
					if want := i != wantFail; ok != want {
						t.Fatalf("record %d present = %v, want %v", i, ok, want)
					}
				}
				// The recovered store accepts appends again.
				if err := rs.put(recordKey(5000+op), core.StageReport, recordPayload(0)); err != nil {
					t.Fatalf("Put after recovery: %v", err)
				}
			})
		}
	}
}

// TestFaultTornWriteThenCrash composes injected mid-op faults with the
// byte-truncation property: a torn record write whose rollback never
// ran (the process died mid-Put) must still recover to the longest
// valid prefix at every subsequent truncation point. The torn state is
// manufactured from the log as the failed Put left it plus the half
// record the short write landed before its rollback.
func TestFaultTornWriteThenCrash(t *testing.T) {
	const n = 6
	// Record k is write op k+1 (ops are 1-based).
	for rec := 1; rec < n; rec++ {
		dir := t.TempDir()
		plan := &FaultPlan{ShortWriteOp: int64(rec + 1)}
		s, err := OpenWithFaults(dir, plan)
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]Key, n)
		var torn []byte
		for i := 0; i < n; i++ {
			keys[i] = recordKey(i)
			err := s.put(keys[i], core.StageReport, recordPayload(i))
			if i == rec {
				if !errors.Is(err, ErrInjected) {
					t.Fatalf("rec %d: Put %d = %v, want injected fault", rec, i, err)
				}
				// Snapshot the log before this loop's next Put appends
				// past the rollback point. Put already rolled back, so
				// re-tear: append the half record the short write landed.
				torn, _ = os.ReadFile(filepath.Join(dir, logName))
				whole := appendRecord(nil, keys[i], core.StageReport, recordPayload(i))
				torn = append(torn, whole[:len(whole)/2]...)
			} else if err != nil {
				t.Fatalf("rec %d: Put %d: %v", rec, i, err)
			}
		}
		s.Close()

		// Replay the torn image at every truncation point.
		for cut := 0; cut <= len(torn); cut++ {
			cdir := filepath.Join(dir, fmt.Sprintf("cut%d", cut))
			os.MkdirAll(cdir, 0o755)
			os.WriteFile(filepath.Join(cdir, logName), torn[:cut], 0o644)
			want := 0
			for want < rec && recordEnd(want) <= int64(cut) {
				want++ // the torn record and anything past it never validate
			}
			rs, err := Open(cdir)
			if err != nil {
				t.Fatalf("rec %d cut %d: Open: %v", rec, cut, err)
			}
			if got := liveRecords(rs); got != want {
				t.Fatalf("rec %d cut %d: recovered %d records, want %d", rec, cut, got, want)
			}
			for i := 0; i < want; i++ {
				if _, ok := rs.get(keys[i], core.StageReport); !ok {
					t.Fatalf("rec %d cut %d: surviving record %d missing", rec, cut, i)
				}
			}
			rs.Close()
			os.RemoveAll(cdir)
		}
	}
}

// TestFaultSyncErrorSurfacesButPreservesRecords: an injected fsync
// failure must be reported to the caller (Close propagates it) without
// costing any committed record.
func TestFaultSyncErrorSurfacesButPreservesRecords(t *testing.T) {
	dir := t.TempDir()
	plan := &FaultPlan{FailSyncOp: 1}
	s, err := OpenWithFaults(dir, plan)
	if err != nil {
		t.Fatal(err)
	}
	keys, _ := fillFaulty(t, s, 5)
	if err := s.Close(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Close = %v, want injected fault", err)
	}
	// The failed sync must not cost a record: all are there on reopen.
	rs, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if got := liveRecords(rs); got != 5 {
		t.Fatalf("recovered %d records, want 5", got)
	}
	for i, k := range keys {
		if _, ok := rs.get(k, core.StageReport); !ok {
			t.Fatalf("record %d missing after sync fault", i)
		}
	}
}

// TestFaultStallKeepsStoreCorrect: stalled writes change timing only —
// every record still lands and survives reopen.
func TestFaultStallKeepsStoreCorrect(t *testing.T) {
	dir := t.TempDir()
	plan := &FaultPlan{StallEveryOp: 3, Stall: time.Millisecond}
	s, err := OpenWithFaults(dir, plan)
	if err != nil {
		t.Fatal(err)
	}
	keys, firstFail := fillFaulty(t, s, 8)
	if firstFail != -1 {
		t.Fatalf("stall plan failed Put %d", firstFail)
	}
	s.Close()
	rs, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	for i, k := range keys {
		if _, ok := rs.get(k, core.StageReport); !ok {
			t.Fatalf("record %d missing", i)
		}
	}
}
