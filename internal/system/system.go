// Package system models the system-level concerns the paper's §IX
// sketches: factories feeding an application through a prepared-state
// buffer, throughput derating from distillation failures, and loss
// compensation via a maintenance reserve that covers failed batches.
// It is a discrete-cycle simulation over the aggregate quantities
// (states, not individual qubits), parameterized by the per-factory
// latency and batch size the mapping pipeline produces.
package system

import (
	"fmt"
	"math"
	"math/rand"
)

// Config describes a factory farm serving a T-gate request stream.
type Config struct {
	// FactoryLatency is the cycles one factory needs per batch attempt
	// (the mapped factory's simulated latency).
	FactoryLatency int
	// BatchSize is the states a successful batch delivers (the factory
	// capacity).
	BatchSize int
	// SuccessProb is the probability a batch passes all distillation
	// checks (1 / resource.ExpectedRunsPerSuccess).
	SuccessProb float64
	// Factories is the number of factory copies running in parallel.
	Factories int
	// BufferSize caps the prepared-state buffer; produced states beyond
	// the cap are wasted (the factory idles only when the buffer is full).
	BufferSize int
	// DemandRate is the average T-gate requests per cycle.
	DemandRate float64
	// Cycles is the simulated horizon.
	Cycles int
	// MaintenanceReserve, when positive, implements §IX's loss
	// compensation: a reserve of high-fidelity states that covers a
	// failed batch (refilled by successful batches before the buffer),
	// hiding the failure from consumers.
	MaintenanceReserve int
	// Seed drives batch success draws.
	Seed int64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.FactoryLatency <= 0 || c.BatchSize <= 0 || c.Factories <= 0 || c.Cycles <= 0 {
		return fmt.Errorf("system: latency, batch size, factories and cycles must be positive")
	}
	if c.SuccessProb <= 0 || c.SuccessProb > 1 {
		return fmt.Errorf("system: success probability %v out of (0,1]", c.SuccessProb)
	}
	if c.DemandRate < 0 || c.BufferSize < 0 || c.MaintenanceReserve < 0 {
		return fmt.Errorf("system: negative rates or capacities")
	}
	return nil
}

// Result aggregates a simulated horizon.
type Result struct {
	// Served counts requests satisfied from the buffer the cycle they
	// arrived; Stalled counts requests that had to wait.
	Served, Stalled int
	// StallCycles sums, over all requests, the cycles spent waiting.
	StallCycles int
	// Produced counts states delivered into the buffer (after failures
	// and reserve refills); Wasted counts states dropped at a full buffer.
	Produced, Wasted int
	// FailedBatches counts batch attempts that failed their checks;
	// CompensatedBatches counts failures hidden by the reserve.
	FailedBatches, CompensatedBatches int
	// AvgOccupancy is the mean buffer fill over the horizon.
	AvgOccupancy float64
}

// StallFraction returns the fraction of requests that stalled.
func (r *Result) StallFraction() float64 {
	total := r.Served + r.Stalled
	if total == 0 {
		return 0
	}
	return float64(r.Stalled) / float64(total)
}

// Simulate runs the farm for cfg.Cycles cycles.
//
// Factory i starts staggered at phase (i*L)/F of the latency L and then
// completes a batch on every cycle t with t mod L equal to that phase, so
// the factories completing on a cycle are a run of consecutive indices:
// phases do not decrease in i. A cursor over the factories, reset at
// each period's start, visits just those, in index order, so the batch
// draws come from the rng in the order a per-factory countdown would
// make them, at O(1) work per cycle plus one step per completion.
func Simulate(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &Result{}

	lat, nf := cfg.FactoryLatency, cfg.Factories
	next, due := 0, 0 // the next factory to complete this period, and its phase
	buffer := 0
	reserve := cfg.MaintenanceReserve
	var demandAcc float64
	backlog := 0
	var occSum float64

	for t, phase := 0, 0; t < cfg.Cycles; t++ {
		// Production.
		if phase == lat {
			phase, next, due = 0, 0, 0
		}
		for ; next < nf && due == phase; next, due = next+1, (next+1)*lat/nf {
			if rng.Float64() <= cfg.SuccessProb {
				batch := cfg.BatchSize
				// Refill the maintenance reserve first (loss compensation
				// keeps it stocked ahead of the buffer).
				if reserve < cfg.MaintenanceReserve {
					refill := cfg.MaintenanceReserve - reserve
					if refill > batch {
						refill = batch
					}
					reserve += refill
					batch -= refill
				}
				if buffer+batch > cfg.BufferSize {
					res.Wasted += buffer + batch - cfg.BufferSize
					batch = cfg.BufferSize - buffer
				}
				buffer += batch
				res.Produced += batch
			} else {
				res.FailedBatches++
				if reserve >= cfg.BatchSize {
					// The reserve covers the failed batch.
					reserve -= cfg.BatchSize
					grant := cfg.BatchSize
					if buffer+grant > cfg.BufferSize {
						res.Wasted += buffer + grant - cfg.BufferSize
						grant = cfg.BufferSize - buffer
					}
					buffer += grant
					res.Produced += grant
					res.CompensatedBatches++
				}
			}
		}
		// Demand.
		demandAcc += cfg.DemandRate
		for demandAcc >= 1 {
			demandAcc--
			if buffer > 0 && backlog == 0 {
				buffer--
				res.Served++
			} else {
				backlog++
				res.Stalled++
			}
		}
		// Drain backlog.
		for backlog > 0 && buffer > 0 {
			buffer--
			backlog--
		}
		res.StallCycles += backlog
		occSum += float64(buffer)
		phase++
	}
	res.AvgOccupancy = occSum / float64(cfg.Cycles)
	return res, nil
}

// FactoriesFor returns the smallest factory count n >= 1 whose
// steady-state production meets demand with the given headroom factor
// (>= 1), using the fluid approximation production = n * batch * p /
// latency, decided by the float test float64(n)*perFactory >= need.
//
// It starts from ceil(need/perFactory) and steps to the exact answer:
// below 2^53 float64(n) is exact and rounding is monotone, so the test
// does not flip back as n grows. A demand that needs 2^53 or more
// factories, as any positive demand does at a per-factory rate that
// rounds to zero, is unattainable and returns 0, as does a degenerate
// config.
func FactoriesFor(cfg Config, headroom float64) int {
	if headroom < 1 {
		headroom = 1
	}
	if cfg.FactoryLatency <= 0 || cfg.BatchSize <= 0 || cfg.SuccessProb <= 0 {
		return 0
	}
	perFactory := float64(cfg.BatchSize) * cfg.SuccessProb / float64(cfg.FactoryLatency)
	need := cfg.DemandRate * headroom
	const limit = 1 << 53
	n := 1
	if x := math.Ceil(need / perFactory); x > 1 {
		if x >= limit {
			return 0
		}
		n = int(x)
	}
	for n > 1 && float64(n-1)*perFactory >= need {
		n--
	}
	for float64(n)*perFactory < need {
		if n++; n >= limit {
			return 0
		}
	}
	return n
}

// BufferSweepPoint is one (buffer size, stall fraction) sample.
type BufferSweepPoint struct {
	BufferSize    int
	StallFraction float64
	AvgOccupancy  float64
}

// BufferSweep measures stall fraction across buffer sizes, holding the
// rest of cfg fixed — the §IX "prepared state buffers" study.
func BufferSweep(cfg Config, sizes []int) ([]BufferSweepPoint, error) {
	var out []BufferSweepPoint
	for _, b := range sizes {
		c := cfg
		c.BufferSize = b
		r, err := Simulate(c)
		if err != nil {
			return nil, err
		}
		out = append(out, BufferSweepPoint{BufferSize: b, StallFraction: r.StallFraction(), AvgOccupancy: r.AvgOccupancy})
	}
	return out, nil
}
