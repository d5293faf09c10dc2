package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"magicstate"
	"magicstate/internal/presets"
)

// presetResult is the wire form of one preset point's result: the same
// field names and order as msfud's per-point result JSON, so the CI
// e2e step can diff `paperbench preset X` line-for-line against
// `POST /v1/batch {"preset": "X"}`.
type presetResult struct {
	Strategy           string  `json:"strategy"`
	Latency            int     `json:"latency"`
	Area               int     `json:"area"`
	Volume             float64 `json:"volume"`
	CriticalLatency    int     `json:"critical_latency"`
	CriticalVolume     float64 `json:"critical_volume"`
	PermutationLatency int     `json:"permutation_latency,omitempty"`
}

// runPreset evaluates a named preset suite and writes one JSON result
// per line to w, in point order. Parallelism and checkpointing behave
// like the artifact sweeps: results are byte-identical at every
// -parallel setting and across checkpoint resumes.
func runPreset(w io.Writer, name string, parallel int, checkpoint string) error {
	p, ok := presets.Get(name)
	if !ok {
		return fmt.Errorf("unknown preset %q (available: %s)",
			name, strings.Join(presets.Names(), ", "))
	}
	results, err := magicstate.OptimizeBatch(p.Points, magicstate.BatchOptions{
		Parallelism: parallel,
		Checkpoint:  checkpoint,
	})
	if err != nil {
		return fmt.Errorf("preset %s: %w", name, err)
	}
	enc := json.NewEncoder(w)
	for _, r := range results {
		if err := enc.Encode(presetResult{
			Strategy:           r.Strategy,
			Latency:            r.Latency,
			Area:               r.Area,
			Volume:             r.Volume,
			CriticalLatency:    r.CriticalLatency,
			CriticalVolume:     r.CriticalVolume,
			PermutationLatency: r.PermutationLatency,
		}); err != nil {
			return err
		}
	}
	return nil
}
