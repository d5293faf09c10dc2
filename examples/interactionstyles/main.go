// Interaction styles (§IX future work): execute the same distillation
// factory under braiding, lattice surgery and teleportation disciplines
// across a sweep of code distances, and locate the crossover where the
// constant-time braids of the paper's model stop paying for their
// exclusive pathways.
package main

import (
	"fmt"
	"log"
	"os"

	"magicstate/internal/experiments"
)

func main() {
	const k, level = 4, 2
	distances := []int{3, 5, 7, 9, 11, 15, 21, 27}
	rows, err := experiments.StylesExperiment(k, level, distances)
	if err != nil {
		log.Fatal(err)
	}
	experiments.WriteStyles(os.Stdout, k, level, rows)

	// Find the braiding/lattice-surgery latency crossover.
	braid := map[int]int{}
	surgery := map[int]int{}
	for _, r := range rows {
		switch r.Style {
		case "braiding":
			braid[r.Distance] = r.Latency
		case "lattice-surgery":
			surgery[r.Distance] = r.Latency
		}
	}
	crossover := -1
	for _, d := range distances {
		if surgery[d] > braid[d] {
			crossover = d
			break
		}
	}
	fmt.Println()
	if crossover > 0 {
		fmt.Printf("lattice surgery overtakes braiding latency at d = %d;\n", crossover)
		fmt.Println("below that distance the O(d) merge/split rounds are cheaper than")
		fmt.Println("constant-time braids, above it braiding wins (teleportation tracks")
		fmt.Println("surgery in latency but nearly eliminates channel congestion).")
	} else {
		fmt.Println("no crossover within the sweep: surgery stayed at or below braiding latency.")
	}
}
