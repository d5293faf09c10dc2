// Package trace post-processes simulator runs into the diagnostics the
// paper's evaluation reasons about but never plots directly: braid
// concurrency over time, channel utilization, per-round timing breakdowns
// (how much of a multi-level factory's latency the inter-round
// permutation phases consume, the quantity §VII.B attacks), and compact
// ASCII sparklines for CLI reports.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"magicstate/internal/bravyi"
	"magicstate/internal/circuit"
	"magicstate/internal/mesh"
)

// Concurrency returns, per sample bin, the average number of simultaneously
// executing gates across the run: values[i] covers cycles
// [i*latency/bins, (i+1)*latency/bins). Zero-duration gates contribute
// nothing. bins must be >= 1.
func Concurrency(res *mesh.Result, bins int) ([]float64, error) {
	if bins < 1 {
		return nil, fmt.Errorf("trace: bins must be >= 1, got %d", bins)
	}
	if res.Latency == 0 {
		return make([]float64, bins), nil
	}
	// Sweep events: +1 at start, -1 at end, then integrate per bin.
	type event struct {
		t, d int
	}
	var evs []event
	for i := range res.Start {
		if res.Start[i] < 0 || res.End[i] <= res.Start[i] {
			continue
		}
		evs = append(evs, event{t: res.Start[i], d: +1}, event{t: res.End[i], d: -1})
	}
	sort.Slice(evs, func(a, b int) bool {
		if evs[a].t != evs[b].t {
			return evs[a].t < evs[b].t
		}
		return evs[a].d < evs[b].d // ends before starts at the same cycle
	})
	out := make([]float64, bins)
	binWidth := float64(res.Latency) / float64(bins)
	active := 0
	prev := 0
	addSpan := func(from, to, level int) {
		if to <= from || level == 0 {
			return
		}
		// Distribute level x (to-from) cycles across the touched bins.
		for t := from; t < to; {
			bin := int(float64(t) / binWidth)
			if bin >= bins {
				bin = bins - 1
			}
			binEnd := int(float64(bin+1) * binWidth)
			if binEnd <= t {
				binEnd = t + 1
			}
			if binEnd > to {
				binEnd = to
			}
			out[bin] += float64(level) * float64(binEnd-t)
			t = binEnd
		}
	}
	for _, e := range evs {
		addSpan(prev, e.t, active)
		active += e.d
		prev = e.t
	}
	for i := range out {
		out[i] /= binWidth
	}
	return out, nil
}

// BusyFraction returns the fraction of gates' total busy cycles relative
// to the run's latency times the circuit's gate count — a coarse whole-
// machine utilization figure in [0, 1] for non-degenerate runs.
func BusyFraction(res *mesh.Result) float64 {
	if res.Latency == 0 || len(res.Start) == 0 {
		return 0
	}
	busy := 0
	for i := range res.Start {
		if res.Start[i] >= 0 && res.End[i] > res.Start[i] {
			busy += res.End[i] - res.Start[i]
		}
	}
	return float64(busy) / (float64(res.Latency) * float64(len(res.Start)))
}

// RoundSpan is one factory round's realized timing.
type RoundSpan struct {
	Round int
	// PermStart/PermEnd bound the round's permutation phase in cycles
	// (zero-width for round 1).
	PermStart, PermEnd int
	// Start/End bound the whole round in cycles.
	Start, End int
}

// PermCycles returns the permutation window width.
func (r RoundSpan) PermCycles() int { return r.PermEnd - r.PermStart }

// RoundTimeline maps each factory round onto the cycles it actually
// occupied in a simulation, splitting out the inter-round permutation
// phase that hierarchical stitching optimizes (§VII.B).
func RoundTimeline(f *bravyi.Factory, res *mesh.Result) ([]RoundSpan, error) {
	if len(res.Start) != len(f.Circuit.Gates) {
		return nil, fmt.Errorf("trace: result covers %d gates, factory has %d",
			len(res.Start), len(f.Circuit.Gates))
	}
	spans := make([]RoundSpan, 0, len(f.Rounds))
	window := func(from, to int) (start, end int) {
		start, end = -1, 0
		for gi := from; gi < to; gi++ {
			if res.Start[gi] < 0 {
				continue
			}
			if start == -1 || res.Start[gi] < start {
				start = res.Start[gi]
			}
			if res.End[gi] > end {
				end = res.End[gi]
			}
		}
		if start == -1 {
			return 0, 0
		}
		return start, end
	}
	for _, r := range f.Rounds {
		sp := RoundSpan{Round: r.Index}
		sp.Start, sp.End = window(r.GateStart, r.GateEnd)
		if r.PermEnd > r.PermStart {
			sp.PermStart, sp.PermEnd = window(r.PermStart, r.PermEnd)
		}
		spans = append(spans, sp)
	}
	return spans, nil
}

// PermutationShare returns the fraction of total latency spent inside
// permutation windows across all rounds.
func PermutationShare(spans []RoundSpan, latency int) float64 {
	if latency == 0 {
		return 0
	}
	perm := 0
	for _, s := range spans {
		perm += s.PermCycles()
	}
	return float64(perm) / float64(latency)
}

// KindBreakdown sums busy cycles per gate kind, the per-class view of
// where a run's time goes.
func KindBreakdown(c *circuit.Circuit, res *mesh.Result) (map[circuit.Kind]int, error) {
	if len(res.Start) != len(c.Gates) {
		return nil, fmt.Errorf("trace: result covers %d gates, circuit has %d",
			len(res.Start), len(c.Gates))
	}
	out := make(map[circuit.Kind]int)
	for i := range c.Gates {
		if res.Start[i] >= 0 && res.End[i] > res.Start[i] {
			out[c.Gates[i].Kind] += res.End[i] - res.Start[i]
		}
	}
	return out, nil
}

// sparkLevels are the eight block characters of a sparkline.
var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders values as a fixed-width ASCII sparkline, resampling
// by averaging. An empty input or all-zero input renders as width spaces.
func Sparkline(values []float64, width int) string {
	if width < 1 || len(values) == 0 {
		return ""
	}
	// Resample to width buckets.
	buckets := make([]float64, width)
	per := float64(len(values)) / float64(width)
	for i := 0; i < width; i++ {
		lo := int(float64(i) * per)
		hi := int(float64(i+1) * per)
		if hi <= lo {
			hi = lo + 1
		}
		if hi > len(values) {
			hi = len(values)
		}
		var s float64
		for _, v := range values[lo:hi] {
			s += v
		}
		buckets[i] = s / float64(hi-lo)
	}
	var max float64
	for _, v := range buckets {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range buckets {
		if max <= 0 {
			b.WriteRune(' ')
			continue
		}
		idx := int(v / max * float64(len(sparkLevels)-1))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sparkLevels) {
			idx = len(sparkLevels) - 1
		}
		b.WriteRune(sparkLevels[idx])
	}
	return b.String()
}

// WriteReport renders a compact utilization report for a simulated
// factory: overall numbers, a concurrency sparkline, per-round timing
// with permutation shares, and a per-kind cycle breakdown.
func WriteReport(w io.Writer, f *bravyi.Factory, res *mesh.Result) error {
	conc, err := Concurrency(res, 60)
	if err != nil {
		return err
	}
	spans, err := RoundTimeline(f, res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "latency %d cycles, area %d tiles, stalls %d, busy fraction %.3f\n",
		res.Latency, res.Area, res.Stalls, BusyFraction(res))
	fmt.Fprintf(w, "concurrency %s\n", Sparkline(conc, 60))
	for _, s := range spans {
		fmt.Fprintf(w, "round %d: cycles [%d,%d)", s.Round, s.Start, s.End)
		if s.PermCycles() > 0 {
			fmt.Fprintf(w, ", permutation [%d,%d) = %d cycles", s.PermStart, s.PermEnd, s.PermCycles())
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "permutation share of latency: %.3f\n", PermutationShare(spans, res.Latency))
	kinds, err := KindBreakdown(f.Circuit, res)
	if err != nil {
		return err
	}
	var ks []circuit.Kind
	for k := range kinds {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(a, b int) bool { return kinds[ks[a]] > kinds[ks[b]] })
	for _, k := range ks {
		fmt.Fprintf(w, "  %-12s %d busy cycles\n", k.String(), kinds[k])
	}
	return nil
}
