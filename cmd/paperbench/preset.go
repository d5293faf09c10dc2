package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"magicstate"
	"magicstate/internal/presets"
)

// runPreset evaluates a named preset suite and writes one JSON result
// per line to w, in point order. Each line is magicstate.Result's JSON
// encoding, the same bytes msfud answers per point, so CI can diff
// `paperbench preset X` against `POST /v1/batch {"preset": "X"}`
// line for line. Parallelism and checkpointing behave like the
// artifact sweeps: results are byte-identical at every -parallel
// setting and across checkpoint resumes.
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
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}
