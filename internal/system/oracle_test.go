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
	f.Fuzz(func(t *testing.T, latency, batch int, p float64, factories, buffer int, demand float64,
		cycles, reserve int, seed int64) {
		// Keep a case small: the countdown is O(cycles x factories).
		if latency > 1000 || factories > 200 || cycles > 5000 || batch > 1000 ||
			buffer > 1<<20 || reserve > 1<<20 || demand > 1000 {
			t.Skip()
		}
		checkSimulate(t, Config{FactoryLatency: latency, BatchSize: batch, SuccessProb: p, Factories: factories,
			BufferSize: buffer, DemandRate: demand, Cycles: cycles, MaintenanceReserve: reserve, Seed: seed})
	})
}
