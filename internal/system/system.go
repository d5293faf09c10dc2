// Package system models the system-level concerns the paper's §IX
// sketches: factories feeding an application through a prepared-state
// buffer, throughput derating from distillation failures, and loss
// compensation via a maintenance reserve that covers failed batches.
// It simulates discrete cycles over the aggregate quantities (states,
// not individual qubits), parameterized by the per-factory latency and
// batch size the mapping pipeline produces, and visits only the cycles
// on which a batch completes or a request arrives.
package system

import (
	"fmt"
	"math"
	"math/bits"
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
	// The range tests are written so that NaN fails them.
	if !(c.SuccessProb > 0 && c.SuccessProb <= 1) {
		return fmt.Errorf("system: success probability %v out of (0,1]", c.SuccessProb)
	}
	// From 2^53 up, acc-1 rounds back to acc, so the demand accumulator
	// would never drain.
	if !(c.DemandRate >= 0 && c.DemandRate < 1<<53) {
		return fmt.Errorf("system: demand rate %v out of [0,2^53)", c.DemandRate)
	}
	// No request waits longer than the horizon, so this bounds
	// StallCycles, which must fit in an int.
	if worst := (math.Ceil(c.DemandRate*float64(c.Cycles)) + 1) * float64(c.Cycles); !(worst < math.MaxInt) {
		return fmt.Errorf("system: %d cycles at demand rate %v may stall %v request-cycles, past an int", c.Cycles, c.DemandRate, worst)
	}
	if c.BufferSize < 0 || c.MaintenanceReserve < 0 {
		return fmt.Errorf("system: negative capacities")
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
// make them.
//
// The loop visits only event cycles: those with a completion, an
// arrival or both. Between two events neither the buffer nor the
// backlog moves (after any event cycle one of them is 0, so the drain
// does nothing), and demand.quiet advances the demand accumulator over the
// whole stretch in a few jumps, so each stretch is settled at once. The
// Result is bit for bit that of stepping every cycle.
func Simulate(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &Result{}

	lat, nf := cfg.FactoryLatency, cfg.Factories
	next, due := 0, 0 // the next factory to complete this period, and its phase (lat once all have)
	buffer := 0
	reserve := cfg.MaintenanceReserve
	var demandAcc float64
	dem := demand{rate: cfg.DemandRate}
	backlog := 0
	// The per-cycle float sum of the occupancy has integer partial sums,
	// so while none can pass 2^53 it equals an exact int64 sum.
	exactOcc := cfg.Cycles <= (1<<53)/max(cfg.BufferSize, 1)
	var occ int64
	var occSum float64

	// Cycle t, at phase into the period, is an event cycle.
	for t, phase := 0, 0; t < cfg.Cycles; {
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
		// Demand: the cycle's n arrivals are served from the buffer in
		// order until it runs dry, unless a backlog already waits; the
		// rest stall. Below 2^53 every acc-1 is exact, so subtracting n
		// at once equals n single decrements.
		demandAcc += cfg.DemandRate
		if demandAcc >= 1 {
			n := int(demandAcc)
			demandAcc -= float64(n)
			served := 0
			if backlog == 0 {
				served = min(n, buffer)
			}
			buffer -= served
			res.Served += served
			backlog += n - served
			res.Stalled += n - served
		}
		// Drain backlog.
		drained := min(backlog, buffer)
		buffer -= drained
		backlog -= drained
		// This cycle and the quiet ones up to the next completion or
		// arrival end with the same buffer and backlog.
		phase++
		var quiet int
		demandAcc, quiet = dem.quiet(demandAcc, min(due-phase, cfg.Cycles-t-1))
		run := 1 + quiet
		res.StallCycles += backlog * run
		if exactOcc {
			occ += int64(buffer) * int64(run)
		} else if buffer > 0 {
			for range run {
				occSum += float64(buffer)
			}
		}
		phase += quiet
		t += run
	}
	if exactOcc {
		occSum = float64(occ)
	}
	res.AvgOccupancy = occSum / float64(cfg.Cycles)
	return res, nil
}

// demand steps the request accumulator acc += rate over quiet cycles.
// It remembers the step in ulps for the last binade it jumped in, which
// depends only on the binade and the rate.
type demand struct {
	rate float64
	exp  uint64 // the biased exponent of that binade; 0 for none yet
	jump bool   // the rate lies below the binade, so adds can be jumped
	tie  bool   // R is an integer plus one half
	d    int64  // the step D in ulps
}

// quiet makes up to n steps acc += rate, as many as leave acc below 1,
// and returns acc and the steps made. It stops before a step that would
// reach 1 (an arrival), so acc is exactly what that many float adds give.
//
// It jumps within a binade instead of adding. Let acc be normal in
// [2^(x-1), 2^x), x <= 0, with ulp u = 2^(x-53), and r < 2^(x-1). In
// units of u, acc is an integer A in [2^52, 2^53) and r is R = r/u < 2^52,
// exact as a power-of-two scaling. An add whose exact sum A+R stays below
// 2^53 rounds to a multiple of u, so when R is not an integer plus one
// half every such add adds the same D = round(R), and the next
// floor((2^53-1-A)/D) adds land on A+D, A+2D, ... exactly, all below
// 2^x <= 1. When R is an integer m plus one half the sum is a tie,
// broken to the even neighbour: from an even A every add then adds the
// even one of m and m+1, so an odd A takes one real add first. D = 0
// means acc never moves again. Leaving a binade, a zero or subnormal
// acc, and a rate in acc's own binade or above take a real add.
func (q *demand) quiet(acc float64, n int) (float64, int) {
	r := q.rate
	if r == 0 {
		return acc, n
	}
	const top = 1<<53 - 1 // the largest A in a binade
	k := 0
	for k < n {
		b := math.Float64bits(acc)
		if exp := b >> 52; exp != 0 {
			if exp != q.exp {
				q.binade(exp)
			}
			A := int64(b&(1<<52-1) | 1<<52)
			if q.jump && (!q.tie || A&1 == 0) {
				if q.d == 0 {
					return acc, n
				}
				j := int64(n - k)
				if hi, lo := bits.Mul64(uint64(j), uint64(q.d)); hi != 0 || lo > uint64(top-A) {
					j = (top - A) / q.d
				}
				if j > 0 {
					A += j * q.d
					acc = math.Float64frombits(exp<<52 | uint64(A)&(1<<52-1))
					k += int(j)
					continue
				}
			}
		}
		s := acc + r
		if s >= 1 {
			break
		}
		acc = s
		k++
	}
	return acc, k
}

// binade sets the jump for the binade of biased exponent exp, where acc
// = A * 2^(exp-1075).
func (q *demand) binade(exp uint64) {
	R := math.Ldexp(q.rate, 1075-int(exp))
	m := math.Floor(R)
	q.exp, q.jump, q.tie, q.d = exp, R < 1<<52, R-m == 0.5, int64(m)
	if R-m > 0.5 {
		q.d++
	} else if q.tie {
		q.d += q.d & 1
	}
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
	// BufferSize is the prepared-state buffer cap simulated.
	BufferSize int
	// StallFraction is the fraction of requests that stalled.
	StallFraction float64
	// AvgOccupancy is the mean buffer fill over the horizon.
	AvgOccupancy float64
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
