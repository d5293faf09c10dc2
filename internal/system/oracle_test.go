package system

import (
	"math"
	"math/rand"
	"testing"
)

// simulateNaive is Simulate as a per-factory countdown: every factory's
// timer is decremented on every cycle, and a factory whose timer reaches
// zero completes a batch and restarts it. It is the slow, obviously
// correct reference for Simulate's completion cursor.
func simulateNaive(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &Result{}

	timers := make([]int, cfg.Factories) // cycles until each factory's batch completes
	for i := range timers {
		// Stagger starts so production is spread across the period.
		timers[i] = (i*cfg.FactoryLatency)/cfg.Factories + 1
	}
	buffer := 0
	reserve := cfg.MaintenanceReserve
	var demandAcc float64
	backlog := 0
	var occSum float64

	for t := 0; t < cfg.Cycles; t++ {
		for i := range timers {
			timers[i]--
			if timers[i] > 0 {
				continue
			}
			timers[i] = cfg.FactoryLatency
			if rng.Float64() <= cfg.SuccessProb {
				batch := cfg.BatchSize
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
		for backlog > 0 && buffer > 0 {
			buffer--
			backlog--
		}
		res.StallCycles += backlog
		occSum += float64(buffer)
	}
	res.AvgOccupancy = occSum / float64(cfg.Cycles)
	return res, nil
}

// factoriesForNaive is FactoriesFor as a count-up: the first n = 1, 2,
// 3, ... that passes the float test. It finishes only for small answers.
func factoriesForNaive(cfg Config, headroom float64) int {
	if headroom < 1 {
		headroom = 1
	}
	if cfg.FactoryLatency <= 0 || cfg.BatchSize <= 0 || cfg.SuccessProb <= 0 {
		return 0
	}
	perFactory := float64(cfg.BatchSize) * cfg.SuccessProb / float64(cfg.FactoryLatency)
	n := 1
	for float64(n)*perFactory < cfg.DemandRate*headroom {
		n++
	}
	return n
}

// naiveLimit bounds the answers factoriesForNaive is run for.
const naiveLimit = 1 << 20

// checkFactoriesFor compares FactoriesFor with the count-up. Small
// answers run the count-up itself. A large answer must be the first n
// the float test passes: n passes and n-1 does not, which, with the test
// monotone in n, is where the count-up would stop. A 0 for a valid rate
// must mean the count-up could not stop below 2^52.
func checkFactoriesFor(t *testing.T, cfg Config, headroom float64) {
	t.Helper()
	got := FactoriesFor(cfg, headroom)
	if cfg.FactoryLatency <= 0 || cfg.BatchSize <= 0 || cfg.SuccessProb <= 0 {
		if got != 0 {
			t.Fatalf("degenerate %+v: FactoriesFor = %d, want 0", cfg, got)
		}
		return
	}
	perFactory := float64(cfg.BatchSize) * cfg.SuccessProb / float64(cfg.FactoryLatency)
	need := cfg.DemandRate * max(headroom, 1)
	switch {
	case got == 0:
		if !(float64(1<<52)*perFactory < need) {
			t.Fatalf("%+v headroom %g: FactoriesFor = 0 but 2^52 factories meet %g at %g each", cfg, headroom, need, perFactory)
		}
	case float64(got)*perFactory < need:
		t.Fatalf("%+v headroom %g: FactoriesFor = %d fails the float test (need %g, per factory %g)",
			cfg, headroom, got, need, perFactory)
	case got <= naiveLimit:
		// got passes, so the count-up stops within got steps.
		if want := factoriesForNaive(cfg, headroom); got != want {
			t.Fatalf("%+v headroom %g: FactoriesFor = %d, count-up %d", cfg, headroom, got, want)
		}
	default:
		if float64(got-1)*perFactory >= need {
			t.Fatalf("%+v headroom %g: FactoriesFor = %d is not the first passing count (need %g, per factory %g)",
				cfg, headroom, got, need, perFactory)
		}
	}
}

func TestFactoriesForMatchesCountUp(t *testing.T) {
	// Quotients next to an integer, where ceil can miss the answer on
	// either side, and the cut-off.
	for _, c := range []struct {
		lat, batch int
		p, demand  float64
		headroom   float64
	}{
		{100, 10, 0.9, 0.5, 1.1},
		{10, 1, 1, 0.3, 1},               // 0.1 per factory: 0.3/0.1 rounds below 3
		{10, 1, 1, 0.7, 1},               // and 0.7/0.1 below 7
		{3, 1, 1, 1, 1},                  // 1/3 per factory
		{49, 7, 0.7, 0.1, 1},             // 0.1 per factory, and 0.1 over it rounds above 1
		{5, 1, 1, 0.6000000000000001, 1}, // ceil gives 4, but 3*0.2 is the demand exactly
		{3, 7, 1, 16.333333333333336, 1}, // ceil gives 8, but 7*(7/3) is the demand exactly
		{3, 5, 1, 15.000000000000002, 1}, // ceil gives 9, and 9*(5/3) falls short
		{720, 1, 0.001051939548227095, 0.02, 1.2},
		{1, 1, 1, 0, 1},
		{1, 1, 1, -5, 1},
		{1, 1, 1, math.NaN(), 1},
		{1, 1, 1, math.Inf(1), 1},
		{1, 1, 1e-300, 1, 1}, // need/perFactory overflows to +Inf
		{1, 1, math.SmallestNonzeroFloat64, 0, 1},
		{0, 1, 1, 1, 1},
		{1, 0, 1, 1, 1},
		{1, 1, 0, 1, 1},
		{1, 1, 1, 1 << 53, 1},       // exactly the cut-off
		{1, 1, 1, 1<<53 - 1, 1},     // one below it
		{1, 1, 1, 1<<53 - 2, 1},     // two below it
		{1, 1, 0.5, 1<<52 - 1, 1},   // 2^53-2 factories of 1/2
		{1, 1, 1, 1 << 40, 1},       // a large exact answer
		{3, 1, 1, (1 << 40) / 3, 1}, // a large answer on a rounded rate
	} {
		cfg := Config{FactoryLatency: c.lat, BatchSize: c.batch, SuccessProb: c.p, DemandRate: c.demand}
		checkFactoriesFor(t, cfg, c.headroom)
	}
	if got := FactoriesFor(Config{FactoryLatency: 1, BatchSize: 1, SuccessProb: 1, DemandRate: 1 << 53}, 1); got != 0 {
		t.Errorf("2^53 factories: FactoriesFor = %d, want 0 (unattainable)", got)
	}
	if got := FactoriesFor(Config{FactoryLatency: 1, BatchSize: 1, SuccessProb: 1, DemandRate: 1<<53 - 1}, 1); got != 1<<53-1 {
		t.Errorf("2^53-1 factories: FactoriesFor = %d", got)
	}
}

func FuzzFactoriesForOracle(f *testing.F) {
	// Seeds next to rounding boundaries (rates of 1/10, 1/3, 1/7 with
	// demands on their multiples) and the 2^53 cut-off.
	f.Add(10, 1, 1.0, 0.3, 1.0)
	f.Add(10, 1, 1.0, 0.7, 1.0)
	f.Add(3, 1, 1.0, 1.0, 1.0)
	f.Add(7, 1, 1.0, 6.0/7, 1.0)
	f.Add(5, 1, 1.0, 0.6000000000000001, 1.0)
	f.Add(3, 5, 1.0, 15.000000000000002, 1.0)
	f.Add(100, 10, 0.9, 0.5, 1.1)
	f.Add(720, 1, 0.001051939548227095, 0.02, 1.2)
	f.Add(840, 8, 6.206168257965763e-07, 0.02, 1.2)
	f.Add(1, 1, 1.0, float64(1<<53), 1.0)
	f.Add(1, 1, 1.0, float64(1<<53-1), 1.0)
	f.Add(1, 3, 1.0/3, float64(1<<53-1), 1.0)
	f.Add(1, 1, 1e-300, 1.0, 1.0)
	f.Add(5, 2, 0.5, 0.0, 0.5)
	f.Fuzz(func(t *testing.T, latency, batch int, p, demand, headroom float64) {
		checkFactoriesFor(t, Config{FactoryLatency: latency, BatchSize: batch, SuccessProb: p, DemandRate: demand}, headroom)
	})
}

// checkSimulate compares Simulate with the countdown on the whole
// Result, AvgOccupancy bit for bit.
func checkSimulate(t *testing.T, cfg Config) {
	t.Helper()
	got, gerr := Simulate(cfg)
	want, werr := simulateNaive(cfg)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%+v: Simulate error %v, countdown error %v", cfg, gerr, werr)
	}
	if gerr != nil {
		return
	}
	if *got != *want || math.Float64bits(got.AvgOccupancy) != math.Float64bits(want.AvgOccupancy) {
		t.Fatalf("%+v:\n got %+v\nwant %+v", cfg, *got, *want)
	}
}

func TestSimulateMatchesCountdown(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []Config{
		base(),
		{FactoryLatency: 1, BatchSize: 3, SuccessProb: 0.7, Factories: 5, BufferSize: 4, DemandRate: 2.5, Cycles: 500, Seed: 2},
		{FactoryLatency: 7, BatchSize: 2, SuccessProb: 0.6, Factories: 30, BufferSize: 0, DemandRate: 1, Cycles: 400, Seed: 3},
		{FactoryLatency: 9, BatchSize: 4, SuccessProb: 0.5, Factories: 4, BufferSize: 12, DemandRate: 0.8, Cycles: 600,
			MaintenanceReserve: 6, Seed: 4},
		{FactoryLatency: 720, BatchSize: 1, SuccessProb: 0.001051939548227095, Factories: 64, BufferSize: 4,
			DemandRate: 0.0003, Cycles: 21600, Seed: 1},
		// The farms of msfbench's applications' K=2 and K=1 candidates
		// (plan.Plan simulates only the winning K=1 one): fluid-scaled
		// rates with a few arrivals per horizon.
		{FactoryLatency: 840, BatchSize: 8, SuccessProb: 6.206168257965763e-07, Factories: 64, BufferSize: 8,
			DemandRate: 3.1523192371621303e-07, Cycles: 25200, Seed: 1},
		{FactoryLatency: 720, BatchSize: 1, SuccessProb: 0.001051939548227095, Factories: 64, BufferSize: 1,
			DemandRate: 7.790831590878706e-05, Cycles: 21600, Seed: 1},
	}
	// Occupancy partial sums past 2^53, where the float sum rounds.
	for i, batch := range []int{3<<48 + 1, 1<<52 - 3, 12345678901} {
		cases = append(cases, Config{FactoryLatency: 3, BatchSize: batch, SuccessProb: 0.5, Factories: 2,
			BufferSize: 1<<52 - 1, DemandRate: 0.7, Cycles: 2000, Seed: int64(i)})
	}
	// Rates at the demand stepper's edge cases, on a small farm.
	for i, r := range edgeRates {
		cases = append(cases,
			Config{FactoryLatency: 50, BatchSize: 2, SuccessProb: 0.6, Factories: 3, BufferSize: 5,
				DemandRate: r, Cycles: 3000, Seed: int64(i)},
			Config{FactoryLatency: 7, BatchSize: 1, SuccessProb: 0.9, Factories: 2, BufferSize: 0,
				DemandRate: r, Cycles: 500, MaintenanceReserve: 3, Seed: int64(i)})
	}
	// Long horizons at small rates, the planner's regime.
	for i := 0; i < 40; i++ {
		lat := 1 + rng.Intn(1000)
		cases = append(cases, Config{
			FactoryLatency: lat,
			BatchSize:      1 + rng.Intn(10),
			SuccessProb:    math.Exp(-12 * rng.Float64()),
			Factories:      1 + rng.Intn(64),
			BufferSize:     rng.Intn(20),
			DemandRate:     math.Exp(-20 * rng.Float64()),
			Cycles:         1 + rng.Intn(30*lat),
			Seed:           rng.Int63(),
		})
	}
	for i := 0; i < 300; i++ {
		cases = append(cases, Config{
			FactoryLatency:     1 + rng.Intn(40),
			BatchSize:          1 + rng.Intn(10),
			SuccessProb:        0.05 + 0.95*rng.Float64(),
			Factories:          1 + rng.Intn(70),
			BufferSize:         rng.Intn(30),
			DemandRate:         3 * rng.Float64(),
			Cycles:             1 + rng.Intn(800),
			MaintenanceReserve: rng.Intn(3) * rng.Intn(20),
			Seed:               rng.Int63(),
		})
	}
	for _, cfg := range cases {
		checkSimulate(t, cfg)
	}
}

func FuzzFarmSimulateOracle(f *testing.F) {
	f.Add(100, 10, 0.9, 2, 50, 0.1, 2000, 0, int64(1)) // the package's base farm
	f.Add(1, 3, 0.7, 5, 4, 2.5, 300, 0, int64(2))      // L = 1: every factory every cycle
	f.Add(7, 2, 0.6, 30, 0, 1.0, 300, 0, int64(3))     // F > L, no buffer
	f.Add(9, 4, 0.5, 4, 12, 0.8, 500, 6, int64(4))     // a maintenance reserve
	f.Add(13, 5, 0.3, 13, 20, 1.5, 500, 10, int64(5))  // F = L
	f.Add(0, 1, 0.5, 1, 1, 0.1, 10, 0, int64(6))       // invalid: both reject
	// The planner's two farms.
	f.Add(840, 8, 6.206168257965763e-07, 64, 8, 3.1523192371621303e-07, 25200, 0, int64(1))
	f.Add(720, 1, 0.001051939548227095, 64, 1, 7.790831590878706e-05, 21600, 0, int64(1))
	for i, r := range edgeRates {
		f.Add(50, 2, 0.6, 3, 5, r, 3000, 0, int64(7+i))
	}
	f.Fuzz(func(t *testing.T, latency, batch int, p float64, factories, buffer int, demand float64,
		cycles, reserve int, seed int64) {
		// Keep a case small: the countdown is O(cycles x factories).
		if latency > 1000 || factories > 200 || cycles > 1<<15 || cycles*factories > 1<<21 || batch > 1000 ||
			buffer > 1<<20 || reserve > 1<<20 || demand > 1000 {
			t.Skip()
		}
		checkSimulate(t, Config{FactoryLatency: latency, BatchSize: batch, SuccessProb: p, Factories: factories,
			BufferSize: buffer, DemandRate: demand, Cycles: cycles, MaintenanceReserve: reserve, Seed: seed})
	})
}

// edgeRates are demand rates at the edges of demand.quiet's jump.
var edgeRates = []float64{
	3.0 / 14,               // an add rounds to exactly 1.0, an arrival, at cycle 13
	0.1,                    // 0.2+0.1 is a tie, broken up to 0.30000000000000004
	0x1p-12 + 0x1p-54,      // a tie on every add in [1/2, 1), adding the even m
	0x1p-12 + 0x3p-54,      // a tie on every add in [1/2, 1), adding m+1
	1,                      // an arrival every cycle
	2.5,                    // several arrivals a cycle
	1 - 0x1p-53,            // just below 1
	0x1p-40,                // a power of two: every add exact
	5e-324,                 // the smallest subnormal
	0x3p-1030,              // a subnormal with more than one bit
	0x1p-1022,              // the smallest normal
	3.1523192371621303e-07, // the planner's rates
	7.790831590878706e-05,
}

// naiveArrivals steps the demand accumulator acc += r; for acc >= 1 {
// acc-- } for n cycles, and returns each cycle's arrivals and the
// accumulator after it.
func naiveArrivals(r float64, n int) ([]int, []float64) {
	arr, accs := make([]int, n), make([]float64, n)
	acc := 0.0
	for t := range n {
		acc += r
		for acc >= 1 {
			acc--
			arr[t]++
		}
		accs[t] = acc
	}
	return arr, accs
}

// TestDemandQuietMatchesAccumulator drives the accumulator by
// demand.quiet, with a real add on each cycle it stops at, and checks
// every stretch against the per-cycle accumulator: no arrival inside,
// acc bit for bit at its end, and an arrival on the cycle after it
// unless the limit cut it short.
func TestDemandQuietMatchesAccumulator(t *testing.T) {
	const cycles = 100_000
	rng := rand.New(rand.NewSource(1))
	rates := append([]float64{0}, edgeRates...)
	for range 40 {
		rates = append(rates, math.Exp(-40*rng.Float64()))
	}
	for _, r := range rates {
		arr, accs := naiveArrivals(r, cycles)
		for _, limit := range []int{cycles, 1, 37, 1000} {
			acc, q := 0.0, demand{rate: r}
			for c := 0; c < cycles; {
				lim := min(limit, cycles-c)
				var k int
				acc, k = q.quiet(acc, lim)
				if k < 0 || k > lim {
					t.Fatalf("r=%v cycle %d: %d steps for limit %d", r, c, k, lim)
				}
				for i := c; i < c+k; i++ {
					if arr[i] != 0 {
						t.Fatalf("r=%v limit %d: stepped over the arrival at cycle %d", r, limit, i)
					}
				}
				if k > 0 && math.Float64bits(acc) != math.Float64bits(accs[c+k-1]) {
					t.Fatalf("r=%v limit %d: acc %v after cycle %d, want %v", r, limit, acc, c+k-1, accs[c+k-1])
				}
				if c += k; c == cycles {
					break
				}
				if k < lim && arr[c] == 0 {
					t.Fatalf("r=%v limit %d: stopped at cycle %d, which has no arrival", r, limit, c)
				}
				acc += r
				got := 0
				for acc >= 1 {
					acc--
					got++
				}
				if got != arr[c] || math.Float64bits(acc) != math.Float64bits(accs[c]) {
					t.Fatalf("r=%v limit %d cycle %d: %d arrivals and acc %v, want %d and %v",
						r, limit, c, got, acc, arr[c], accs[c])
				}
				c++
			}
		}
	}
}
