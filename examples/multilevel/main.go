// Multilevel: build a two-level, capacity-16 block-code factory and show
// what each piece of the hierarchical stitching pipeline (§VII of the
// paper) buys: per-module block embedding, qubit reuse, Hungarian port
// reassignment, and annealed intermediate-hop permutation routing.
package main

import (
	"fmt"
	"log"

	"magicstate/internal/bravyi"
	"magicstate/internal/mesh"
	"magicstate/internal/stitch"
)

func run(name string, opt stitch.Options) {
	r, err := stitch.Build(bravyi.Params{K: 4, Levels: 2, Barriers: true}, opt)
	if err != nil {
		log.Fatal(err)
	}
	sim, err := mesh.Simulate(r.Factory.Circuit, r.Placement, mesh.Config{})
	if err != nil {
		log.Fatal(err)
	}
	perm, err := stitch.PermutationLatency(r.Factory, sim.Start, sim.End, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-34s latency %5d  area %4d  volume %10.4g  permutation %4d\n",
		name, sim.Latency, sim.Area, float64(sim.Latency)*float64(sim.Area), perm)
}

func main() {
	fmt.Println("two-level capacity-16 factory, hierarchical stitching variants:")
	run("no reuse, direct permutation", stitch.Options{Seed: 1, Hops: stitch.NoHop})
	run("reuse, direct permutation", stitch.Options{Seed: 1, Reuse: true, Hops: stitch.NoHop})
	run("reuse, no port reassignment", stitch.Options{Seed: 1, Reuse: true, Hops: stitch.NoHop, DisablePortReassign: true})
	run("reuse, random (Valiant) hops", stitch.Options{Seed: 1, Reuse: true, Hops: stitch.RandomHop})
	run("reuse, annealed midpoint hops", stitch.Options{Seed: 1, Reuse: true, Hops: stitch.AnnealedMidpointHop})
}
