package experiments

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// PaperCapacities groups the capacity sweeps the paper's figures use.
var (
	PaperFig7L1Capacities  = []int{2, 4, 6, 8, 12, 16, 20}
	PaperFig7L2Capacities  = []int{4, 16, 36, 64}
	PaperFig9Capacities    = []int{4, 16, 36, 64}
	PaperFig10L1Capacities = []int{2, 4, 6, 8, 12, 16, 20, 24}
	PaperFig10L2Capacities = []int{4, 16, 36, 64, 100}
	PaperTable1L1          = []int{2, 4, 8, 10, 24}
	PaperTable1L2          = []int{4, 16, 36, 64, 100}
)

func newTab(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// WriteFig6 renders a Fig. 6 result.
func WriteFig6(w io.Writer, r *Fig6Result) {
	fmt.Fprintf(w, "Fig. 6 — congestion metric vs latency correlations (K=%d, %d randomized mappings)\n", r.K, r.Samples)
	fmt.Fprintf(w, "  r(edge crossings, latency)  = %+.3f   (paper: positive, strongest panel r=0.831)\n", r.RCrossings)
	fmt.Fprintf(w, "  r(avg edge length, latency) = %+.3f   (paper: positive, r=0.601)\n", r.RLength)
	fmt.Fprintf(w, "  r(avg edge spacing, latency)= %+.3f   (paper: negative, r=-0.625)\n", r.RSpacing)
}

// WriteFig7 renders Fig. 7 rows.
func WriteFig7(w io.Writer, level int, rows []Fig7Row) {
	fmt.Fprintf(w, "Fig. 7%s — latency vs capacity (level %d)\n", map[int]string{1: "a", 2: "b"}[level], level)
	tw := newTab(w)
	fmt.Fprintln(tw, "capacity\tFD\tGP\tlower bound")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\n", r.Capacity, r.FDLatency, r.GPLatency, r.Critical)
	}
	tw.Flush()
}

// WriteFig9Reuse renders Fig. 9a/9b rows.
func WriteFig9Reuse(w io.Writer, rows []Fig9ReuseRow) {
	fmt.Fprintln(w, "Fig. 9a/9b — reuse vs no-reuse volume differential (NR-R)/NR, level 2")
	fmt.Fprintln(w, "positive: reuse better; negative: no-reuse better")
	tw := newTab(w)
	fmt.Fprintln(tw, "capacity\tLine\tFD\tGP")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%+.3f\t%+.3f\t%+.3f\n", r.Capacity, r.LineDiff, r.FDDiff, r.GPDiff)
	}
	tw.Flush()
}

// WriteFig9Hops renders Fig. 9d rows.
func WriteFig9Hops(w io.Writer, rows []Fig9HopsRow) {
	fmt.Fprintln(w, "Fig. 9d — permutation-step latency by hop routing (level 2, stitched, reuse)")
	tw := newTab(w)
	fmt.Fprintln(tw, "capacity\tno hop\trandom hop\tannealed random\tannealed midpoint")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\n", r.Capacity, r.NoHop, r.RandomHop, r.AnnealedRandom, r.AnnealedMidpoint)
	}
	tw.Flush()
}

// WriteFig10 renders Fig. 10 rows grouped per metric, mirroring the
// figure's three panels per level.
func WriteFig10(w io.Writer, level int, rows []Fig10Row) {
	panels := map[int][3]string{
		1: {"10a latency", "10b area", "10e volume"},
		2: {"10c latency", "10d area", "10f volume"},
	}[level]
	strategies := orderedStrategies(rows)
	caps := orderedCapacities(rows)
	cell := func(strategy string, cap int) *Fig10Row {
		for i := range rows {
			if rows[i].Strategy == strategy && rows[i].Capacity == cap {
				return &rows[i]
			}
		}
		return nil
	}
	for pi, metric := range []func(*Fig10Row) string{
		func(r *Fig10Row) string { return fmt.Sprintf("%d", r.Latency) },
		func(r *Fig10Row) string { return fmt.Sprintf("%d", r.Area) },
		func(r *Fig10Row) string { return fmt.Sprintf("%.3g", r.Volume) },
	} {
		fmt.Fprintf(w, "Fig. %s (level %d)\n", panels[pi], level)
		tw := newTab(w)
		fmt.Fprintf(tw, "strategy\\capacity")
		for _, c := range caps {
			fmt.Fprintf(tw, "\t%d", c)
		}
		fmt.Fprintln(tw)
		for _, s := range strategies {
			fmt.Fprintf(tw, "%s", s)
			for _, c := range caps {
				if r := cell(s, c); r != nil {
					fmt.Fprintf(tw, "\t%s", metric(r))
				} else {
					fmt.Fprintf(tw, "\t-")
				}
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()
	}
}

// WriteTable1 renders Table I.
func WriteTable1(w io.Writer, t *Table1Result) {
	fmt.Fprintln(w, "Table I — quantum volumes (qubits x cycles)")
	tw := newTab(w)
	fmt.Fprintf(tw, "procedure")
	for _, c := range t.Level1Capacities {
		fmt.Fprintf(tw, "\tL1 K=%d", c)
	}
	for _, c := range t.Level2Capacities {
		fmt.Fprintf(tw, "\tL2 K=%d", c)
	}
	fmt.Fprintln(tw)
	for _, proc := range Procedures {
		fmt.Fprintf(tw, "%s", proc)
		for _, c := range t.Level1Capacities {
			if cell, ok := t.Cell(proc, 1, c); ok {
				fmt.Fprintf(tw, "\t%.3g", cell.Volume)
			} else {
				fmt.Fprintf(tw, "\t-")
			}
		}
		for _, c := range t.Level2Capacities {
			if cell, ok := t.Cell(proc, 2, c); ok {
				fmt.Fprintf(tw, "\t%.3g", cell.Volume)
			} else {
				fmt.Fprintf(tw, "\t-")
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	if h := t.HeadlineImprovement(); h > 0 {
		fmt.Fprintf(w, "headline: Line(NR)/HS at largest L2 capacity = %.2fx (paper: 5.64x)\n", h)
	}
}

func orderedStrategies(rows []Fig10Row) []string {
	var out []string
	seen := map[string]bool{}
	for _, r := range rows {
		if !seen[r.Strategy] {
			seen[r.Strategy] = true
			out = append(out, r.Strategy)
		}
	}
	return out
}

func orderedCapacities(rows []Fig10Row) []int {
	var out []int
	seen := map[int]bool{}
	for _, r := range rows {
		if !seen[r.Capacity] {
			seen[r.Capacity] = true
			out = append(out, r.Capacity)
		}
	}
	return out
}

// CSV renders any row set as comma-separated values via a header and a
// row formatter; experiments use it to dump plot-ready data. It stops
// at and returns the first write error.
func CSV(w io.Writer, header []string, rows [][]string) error {
	if _, err := fmt.Fprintln(w, strings.Join(header, ",")); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintln(w, strings.Join(r, ",")); err != nil {
			return err
		}
	}
	return nil
}
