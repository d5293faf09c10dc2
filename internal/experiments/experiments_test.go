package experiments

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestFig6SmallSample(t *testing.T) {
	r, err := Fig6(4, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 12 {
		t.Fatalf("points = %d", len(r.Points))
	}
	// Signs must match the paper: crossings and length correlate
	// positively with latency, spacing negatively.
	if r.RCrossings <= 0 {
		t.Errorf("crossings correlation %v should be positive", r.RCrossings)
	}
	if r.RLength <= 0 {
		t.Errorf("length correlation %v should be positive", r.RLength)
	}
	if r.RSpacing >= 0 {
		t.Errorf("spacing correlation %v should be negative", r.RSpacing)
	}
	var buf bytes.Buffer
	WriteFig6(&buf, r)
	if !strings.Contains(buf.String(), "Fig. 6") {
		t.Error("formatting broken")
	}
}

func TestFig6Deterministic(t *testing.T) {
	a, err := Fig6(2, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig6(2, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatal("same seed must reproduce identical samples")
		}
	}
}

func TestFig7SingleLevel(t *testing.T) {
	rows, err := Fig7(1, []int{2, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.FDLatency < r.Critical || r.GPLatency < r.Critical {
			t.Errorf("capacity %d: latency below lower bound: %+v", r.Capacity, r)
		}
	}
	if rows[1].Critical <= rows[0].Critical {
		t.Error("lower bound should grow with capacity")
	}
	var buf bytes.Buffer
	WriteFig7(&buf, 1, rows)
	if !strings.Contains(buf.String(), "lower bound") {
		t.Error("formatting broken")
	}
}

func TestFig9ReuseSmall(t *testing.T) {
	rows, err := Fig9Reuse([]int{4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatal("want one row")
	}
	for _, d := range []float64{rows[0].LineDiff, rows[0].FDDiff, rows[0].GPDiff} {
		if d < -1 || d > 1 {
			t.Errorf("differential %v out of range", d)
		}
	}
	var buf bytes.Buffer
	WriteFig9Reuse(&buf, rows)
	if !strings.Contains(buf.String(), "capacity") {
		t.Error("formatting broken")
	}
}

func TestFig9HopsSmall(t *testing.T) {
	rows, err := Fig9Hops([]int{4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	for _, v := range []int{r.NoHop, r.RandomHop, r.AnnealedRandom, r.AnnealedMidpoint} {
		if v <= 0 {
			t.Errorf("non-positive permutation latency: %+v", r)
		}
	}
	var buf bytes.Buffer
	WriteFig9Hops(&buf, rows)
	if !strings.Contains(buf.String(), "annealed midpoint") {
		t.Error("formatting broken")
	}
}

func TestFig10SmallSweep(t *testing.T) {
	rows, err := Fig10(2, []int{4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // Line, FD, GP, HS
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	vol := map[string]float64{}
	for _, r := range rows {
		vol[r.Strategy] = r.Volume
	}
	if vol["HS"] >= vol["Line"] {
		t.Errorf("HS (%.3g) should beat Line (%.3g)", vol["HS"], vol["Line"])
	}
	var buf bytes.Buffer
	WriteFig10(&buf, 2, rows)
	out := buf.String()
	for _, want := range []string{"10c", "10d", "10f", "HS"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatting missing %q", want)
		}
	}
}

func TestTable1Small(t *testing.T) {
	res, err := Table1([]int{2}, []int{4}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, proc := range []string{"Random", "Line(NR)", "FD", "GP", "Critical"} {
		if _, ok := res.Cell(proc, 1, 2); !ok {
			t.Errorf("missing L1 cell for %s", proc)
		}
	}
	if _, ok := res.Cell("HS", 1, 2); ok {
		t.Error("HS must be empty for level 1")
	}
	if _, ok := res.Cell("HS", 2, 4); !ok {
		t.Error("missing HS L2 cell")
	}
	crit, _ := res.Cell("Critical", 2, 4)
	hs, _ := res.Cell("HS", 2, 4)
	if hs.Volume < crit.Volume {
		t.Errorf("HS volume %.3g below critical %.3g", hs.Volume, crit.Volume)
	}
	if h := res.HeadlineImprovement(); h <= 1 {
		t.Errorf("headline improvement %v should exceed 1", h)
	}
	// The paper's claims on this grid: force-directed placement beats
	// both linear mappings in every cell, and hierarchical stitching is
	// the lowest level-2 volume short of the critical bound.
	for _, fd := range res.Cells {
		if fd.Procedure != "FD" {
			continue
		}
		for _, proc := range []string{"Line(NR)", "Line(R)"} {
			if line, ok := res.Cell(proc, fd.Level, fd.Capacity); ok && fd.Volume > line.Volume {
				t.Errorf("L%d K=%d: FD volume %.3g above %s %.3g", fd.Level, fd.Capacity, fd.Volume, proc, line.Volume)
			}
		}
	}
	for _, proc := range Procedures {
		if c, ok := res.Cell(proc, 2, 4); ok && proc != "HS" && proc != "Critical" && c.Volume <= hs.Volume {
			t.Errorf("L2 K=4: %s volume %.3g not above HS %.3g", proc, c.Volume, hs.Volume)
		}
	}
	var buf bytes.Buffer
	WriteTable1(&buf, res)
	if !strings.Contains(buf.String(), "headline") {
		t.Error("formatting broken")
	}
}

func TestKForCapacity(t *testing.T) {
	if k, err := kForCapacity(36, 2); err != nil || k != 6 {
		t.Errorf("36@2: %d %v", k, err)
	}
	if _, err := kForCapacity(5, 2); err == nil {
		t.Error("non-square should fail")
	}
	if k, err := kForCapacity(24, 1); err != nil || k != 24 {
		t.Errorf("24@1: %d %v", k, err)
	}
	if _, err := kForCapacity(4, 3); err == nil {
		t.Error("level 3 unsupported in capacity sweeps")
	}
}

func TestCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := CSV(&buf, []string{"a", "b"}, [][]string{{"1", "2"}}); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "a,b\n1,2\n" {
		t.Errorf("csv = %q", buf.String())
	}
}

// failingWriter accepts n bytes, then fails every write.
type failingWriter struct{ n int }

var errWriterFull = errors.New("writer full")

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		k := w.n
		w.n = 0
		return k, errWriterFull
	}
	w.n -= len(p)
	return len(p), nil
}

// TestCSVReturnsWriteError: a write that fails in the header, in a row
// or in the last row is returned, not swallowed.
func TestCSVReturnsWriteError(t *testing.T) {
	header := []string{"a", "b"}
	rows := [][]string{{"1", "2"}, {"3", "4"}}
	for _, n := range []int{0, 2, 4, 9, 11} {
		if err := CSV(&failingWriter{n: n}, header, rows); !errors.Is(err, errWriterFull) {
			t.Errorf("write failing after %d bytes: err = %v, want %v", n, err, errWriterFull)
		}
	}
	if err := CSV(&failingWriter{n: 12}, header, rows); err != nil {
		t.Errorf("12-byte writer fits the whole CSV, got %v", err)
	}
}
