package experiments

import (
	"context"
	"fmt"
	"io"

	"magicstate/internal/bravyi"
	"magicstate/internal/core"
	"magicstate/internal/layout"
	"magicstate/internal/mesh"
	"magicstate/internal/sweep"
)

// StyleRow is one (code distance, interaction style) point of the §IX
// interaction-style study: the same factory circuit and placement
// executed under braiding, lattice surgery and teleportation disciplines.
type StyleRow struct {
	Distance int
	Style    string
	Latency  int
	Stalls   int
	Area     int
	Volume   float64
}

// StylesExperiment sweeps code distance for every interaction style on a
// level-`level` capacity-K^level factory with the linear mapping, so the
// differences between rows come only from the interaction discipline.
// Braiding rows are distance-insensitive by construction (§II.C) and act
// as the horizontal reference the other styles cross. It takes no seed:
// the linear mapping and the simulator are deterministic.
func StylesExperiment(k, level int, distances []int) ([]StyleRow, error) {
	params := bravyi.Params{K: k, Levels: level, Reuse: level >= 2, Barriers: true}
	f, err := bravyi.Build(params)
	if err != nil {
		return nil, fmt.Errorf("styles: %w", err)
	}
	pl := layout.Linear(f)
	type point struct {
		distance int
		style    mesh.InteractionStyle
	}
	var pts []point
	for _, d := range distances {
		if d < 1 {
			return nil, fmt.Errorf("styles: bad distance %d", d)
		}
		for _, s := range mesh.Styles() {
			pts = append(pts, point{distance: d, style: s})
		}
	}
	rows, err := sweep.Map(context.Background(), Engine(), pts, func(_ int, pt point) (StyleRow, error) {
		res, err := mesh.Simulate(f.Circuit, pl, mesh.Config{Style: pt.style, Distance: pt.distance})
		if err != nil {
			return StyleRow{}, fmt.Errorf("styles d=%d %v: %w", pt.distance, pt.style, err)
		}
		return StyleRow{
			Distance: pt.distance,
			Style:    pt.style.String(),
			Latency:  res.Latency,
			Stalls:   res.Stalls,
			Area:     res.Area,
			Volume:   res.Volume().SpaceTime(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// WriteStyles renders the interaction-style sweep as a distance × style
// latency table with stall counts.
func WriteStyles(w io.Writer, k, level int, rows []StyleRow) {
	fmt.Fprintf(w, "Interaction styles (§IX) — K=%d level-%d factory, linear mapping\n", k, level)
	fmt.Fprintln(w, "latency (stalls) per code distance; braiding is distance-insensitive")
	// Collect distances and styles preserving order.
	var ds []int
	var styles []string
	seenD := map[int]bool{}
	seenS := map[string]bool{}
	for _, r := range rows {
		if !seenD[r.Distance] {
			seenD[r.Distance] = true
			ds = append(ds, r.Distance)
		}
		if !seenS[r.Style] {
			seenS[r.Style] = true
			styles = append(styles, r.Style)
		}
	}
	cell := func(style string, d int) *StyleRow {
		for i := range rows {
			if rows[i].Style == style && rows[i].Distance == d {
				return &rows[i]
			}
		}
		return nil
	}
	tw := newTab(w)
	fmt.Fprintf(tw, "style\\distance")
	for _, d := range ds {
		fmt.Fprintf(tw, "\td=%d", d)
	}
	fmt.Fprintln(tw)
	for _, s := range styles {
		fmt.Fprintf(tw, "%s", s)
		for _, d := range ds {
			if r := cell(s, d); r != nil {
				fmt.Fprintf(tw, "\t%d (%d)", r.Latency, r.Stalls)
			} else {
				fmt.Fprintf(tw, "\t-")
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// StyleStrategyRow is one (mapping strategy, interaction style) cell of
// the §IX interaction hypothesis: "our proposed optimizations may likely
// change the trade off thresholds presented in [1]".
type StyleStrategyRow struct {
	Strategy string
	Style    string
	Latency  int
	Stalls   int
}

// StylesByStrategy crosses mapping strategies with interaction styles at
// a fixed code distance on a two-level factory. Better mappings leave
// less congestion for teleportation to relieve, so the gap between
// full-hold styles and teleportation should shrink from Line to HS —
// which is the sense in which optimization shifts the style trade-off.
func StylesByStrategy(k, distance int, seed int64) ([]StyleStrategyRow, error) {
	if distance < 1 {
		return nil, fmt.Errorf("styles: bad distance %d", distance)
	}
	type point struct {
		strategy core.Strategy
		style    mesh.InteractionStyle
	}
	var pts []point
	for _, strat := range []core.Strategy{
		core.StrategyLinear, core.StrategyGraphPartition, core.StrategyStitch,
	} {
		for _, s := range mesh.Styles() {
			pts = append(pts, point{strategy: strat, style: s})
		}
	}
	return sweep.Map(context.Background(), Engine(), pts, func(_ int, pt point) (StyleStrategyRow, error) {
		rep, err := Engine().RunOne(core.Config{
			K: k, Levels: 2, Reuse: true, Strategy: pt.strategy, Seed: seed,
			Style: pt.style, Distance: distance,
		})
		if err != nil {
			return StyleStrategyRow{}, fmt.Errorf("styles %v/%v: %w", pt.strategy, pt.style, err)
		}
		return StyleStrategyRow{
			Strategy: pt.strategy.String(),
			Style:    pt.style.String(),
			Latency:  rep.Latency,
			Stalls:   rep.Stalls,
		}, nil
	})
}

// WriteStylesByStrategy renders the strategy x style matrix.
func WriteStylesByStrategy(w io.Writer, k, distance int, rows []StyleStrategyRow) {
	fmt.Fprintf(w, "Interaction styles x mapping strategies (§IX) — K=%d level-2, d=%d\n", k, distance)
	var strategies, styles []string
	seenStrat, seenStyle := map[string]bool{}, map[string]bool{}
	for _, r := range rows {
		if !seenStrat[r.Strategy] {
			seenStrat[r.Strategy] = true
			strategies = append(strategies, r.Strategy)
		}
		if !seenStyle[r.Style] {
			seenStyle[r.Style] = true
			styles = append(styles, r.Style)
		}
	}
	cell := func(strat, style string) *StyleStrategyRow {
		for i := range rows {
			if rows[i].Strategy == strat && rows[i].Style == style {
				return &rows[i]
			}
		}
		return nil
	}
	tw := newTab(w)
	fmt.Fprintf(tw, "strategy\\style")
	for _, s := range styles {
		fmt.Fprintf(tw, "\t%s", s)
	}
	fmt.Fprintln(tw)
	for _, strat := range strategies {
		fmt.Fprintf(tw, "%s", strat)
		for _, s := range styles {
			if r := cell(strat, s); r != nil {
				fmt.Fprintf(tw, "\t%d (%d)", r.Latency, r.Stalls)
			} else {
				fmt.Fprintf(tw, "\t-")
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Fprintln(w, "latency (stalls); better mappings leave less congestion for teleportation to relieve")
}
