package experiments

import (
	"fmt"
	"io"

	"magicstate/internal/bravyi"
	"magicstate/internal/layout"
	"magicstate/internal/mesh"
	"magicstate/internal/resource"
	"magicstate/internal/sched"
)

// SchedRow compares program-order issue against commutativity-aware gate
// sifting (§V.A) for one factory on one mapping.
type SchedRow struct {
	Capacity int
	Strategy string
	// ProgramLatency and SiftedLatency are simulated cycles before and
	// after sifting commuting gates earlier.
	ProgramLatency int
	SiftedLatency  int
	// CriticalProgram / CriticalSifted are the dependency lower bounds
	// of the two gate orders.
	CriticalProgram int
	CriticalSifted  int
}

// SchedReorder quantifies the paper's §V.A observation that gate
// reordering is limited on block-code circuits: the checkpoints (barriers)
// bound gate mobility, so sifting commuting gates earlier barely moves
// the dependency bound, and the realized latency can even regress when
// early gates congest the network. Factories are mapped with the linear
// baseline so the schedule is the only variable. It takes no seed: the
// linear mapping and sifting are deterministic.
func SchedReorder(level int, capacities []int) ([]SchedRow, error) {
	cm := resource.DefaultCost()
	// One reusable simulator serves every capacity point: the program and
	// sifted schedules share placements, so the lattice and router arenas
	// carry over between runs.
	sim := mesh.NewSimulator()
	var rows []SchedRow
	for _, capn := range capacities {
		p, err := bravyi.ParamsForCapacity(capn, level)
		if err != nil {
			return nil, fmt.Errorf("sched: %w", err)
		}
		p.Reuse = level >= 2
		f, err := bravyi.Build(p)
		if err != nil {
			return nil, err
		}
		pl := layout.Linear(f)
		sifted := sched.SiftEarlier(f.Circuit)

		simP, err := sim.Simulate(f.Circuit, pl, mesh.Config{})
		if err != nil {
			return nil, fmt.Errorf("sched cap %d program: %w", capn, err)
		}
		simS, err := sim.Simulate(sifted, pl, mesh.Config{})
		if err != nil {
			return nil, fmt.Errorf("sched cap %d sifted: %w", capn, err)
		}
		rows = append(rows, SchedRow{
			Capacity:        capn,
			Strategy:        "Line",
			ProgramLatency:  simP.Latency,
			SiftedLatency:   simS.Latency,
			CriticalProgram: cm.CriticalPath(f.Circuit),
			CriticalSifted:  cm.CriticalPath(sifted),
		})
	}
	return rows, nil
}

// WriteSchedReorder renders the reordering study.
func WriteSchedReorder(w io.Writer, level int, rows []SchedRow) {
	fmt.Fprintf(w, "Gate reordering (§V.A) — program order vs commuting-sift, level %d, linear mapping\n", level)
	tw := newTab(w)
	fmt.Fprintln(tw, "capacity\tprogram\tsifted\tbound (program)\tbound (sifted)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\n",
			r.Capacity, r.ProgramLatency, r.SiftedLatency, r.CriticalProgram, r.CriticalSifted)
	}
	tw.Flush()
	fmt.Fprintln(w, "(the paper's claim: barriers bound mobility, so reordering moves little)")
}
