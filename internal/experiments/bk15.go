package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"magicstate/internal/force"
	"magicstate/internal/graph"
	"magicstate/internal/layout"
	"magicstate/internal/mesh"
	"magicstate/internal/partition"
	"magicstate/internal/protocols"
	"magicstate/internal/resource"
)

// BK15Row is one mapping strategy's cost on the original Bravyi-Kitaev
// 15→1 distillation module — the paper's mappers applied to the §III
// related-work protocol's circuit.
type BK15Row struct {
	Strategy string
	Latency  int
	Area     int
	Volume   float64
	Critical int
}

// BK15Mapping maps the explicit [[15,1,3]]-code 15→1 circuit with random
// placement, force-directed annealing and recursive graph partitioning,
// and simulates each on the braid mesh. The circuit's interaction graph
// is dominated by the four stabilizer hubs and the all-ones logical
// operator, a different shape from the Bravyi-Haah ancilla chain — a
// robustness check that the mappers are not overfit to one protocol.
func BK15Mapping(seed int64) ([]BK15Row, error) {
	c := protocols.Circuit15to1()
	g := graph.FromCircuit(c)
	cm := resource.DefaultCost()
	critical := cm.CriticalPath(c)

	random := layout.Random(c.NumQubits, rand.New(rand.NewSource(seed)))
	gp := partition.EmbedSquare(g, rand.New(rand.NewSource(seed+1)))
	fd := force.Anneal(g, c, random.Clone(), force.Options{Seed: seed})

	var rows []BK15Row
	for _, m := range []struct {
		name string
		pl   *layout.Placement
	}{{"Random", random}, {"FD", fd}, {"GP", gp}} {
		res, err := mesh.Simulate(c, m.pl, mesh.Config{})
		if err != nil {
			return nil, fmt.Errorf("bk15 %s: %w", m.name, err)
		}
		rows = append(rows, BK15Row{
			Strategy: m.name,
			Latency:  res.Latency,
			Area:     res.Area,
			Volume:   res.Volume().SpaceTime(),
			Critical: critical,
		})
	}
	return rows, nil
}

// WriteBK15 renders the 15→1 mapping comparison.
func WriteBK15(w io.Writer, rows []BK15Row) {
	fmt.Fprintln(w, "Bravyi-Kitaev 15-to-1 module mapping (§III protocol, this repo's mappers)")
	tw := newTab(w)
	fmt.Fprintln(tw, "strategy\tlatency\tarea\tvolume\tbound")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.3g\t%d\n", r.Strategy, r.Latency, r.Area, r.Volume, r.Critical)
	}
	tw.Flush()
}
