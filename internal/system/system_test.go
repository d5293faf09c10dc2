package system

import (
	"math"
	"testing"
	"time"
)

func base() Config {
	return Config{
		FactoryLatency: 100,
		BatchSize:      10,
		SuccessProb:    0.9,
		Factories:      2,
		BufferSize:     50,
		DemandRate:     0.1,
		Cycles:         20000,
		Seed:           1,
	}
}

func TestValidate(t *testing.T) {
	if err := base().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := base()
	bad.SuccessProb = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero success probability should fail")
	}
	bad = base()
	bad.Factories = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero factories should fail")
	}
	bad = base()
	bad.DemandRate = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative demand should fail")
	}
	// Inputs on which Simulate used to spin forever (a demand rate at or
	// past 2^53, where acc-1 == acc) or run on a NaN. Validate is checked
	// first, so a regression fails here instead of hanging in Simulate.
	for _, c := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"demand +Inf", func(c *Config) { c.DemandRate = math.Inf(1) }},
		{"demand -Inf", func(c *Config) { c.DemandRate = math.Inf(-1) }},
		{"demand NaN", func(c *Config) { c.DemandRate = math.NaN() }},
		{"demand 2^53", func(c *Config) { c.DemandRate = 1 << 53 }},
		{"demand 2^54", func(c *Config) { c.DemandRate = 1 << 54 }},
		{"success NaN", func(c *Config) { c.SuccessProb = math.NaN() }},
		{"success +Inf", func(c *Config) { c.SuccessProb = math.Inf(1) }},
		{"success -Inf", func(c *Config) { c.SuccessProb = math.Inf(-1) }},
		// Stall cycles past an int would wrap silently.
		{"stall cycles past an int", func(c *Config) { c.DemandRate, c.Cycles = 1<<40, 1<<20 }},
		{"demand 2^53-1 over 1024 cycles", func(c *Config) { c.DemandRate, c.Cycles = 1<<53-1, 1024 }},
	} {
		bad = base()
		c.mutate(&bad)
		if err := bad.Validate(); err == nil {
			t.Fatalf("%s: Validate accepted %+v", c.name, bad)
		}
		if _, err := Simulate(bad); err == nil {
			t.Fatalf("%s: Simulate accepted %+v", c.name, bad)
		}
	}
	// The largest rate below 2^53 stays valid over a horizon whose stall
	// cycles fit in an int.
	ok := base()
	ok.DemandRate, ok.Cycles = 1<<53-1, 10
	if err := ok.Validate(); err != nil {
		t.Fatalf("demand 2^53-1 over 10 cycles: %v", err)
	}
}

// TestSimulateSettlesBurstsAtOnce: a cycle's arrivals are settled in one
// step, not one per request, so 10^9 requests over 10 cycles return at
// once with the closed-form counts. One factory fills the buffer with 4
// states at cycle 0 and never completes again; the 10^8 requests of
// cycle t leave a backlog of (t+1)*10^8 - 4 behind it.
func TestSimulateSettlesBurstsAtOnce(t *testing.T) {
	cfg := Config{FactoryLatency: 1000, BatchSize: 4, SuccessProb: 1, Factories: 1,
		BufferSize: 10, DemandRate: 1e8, Cycles: 10, Seed: 1}
	start := time.Now()
	r, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("Simulate took %v for 10 cycles", d)
	}
	want := Result{Served: 4, Stalled: 1e9 - 4, StallCycles: 55e8 - 40, Produced: 4}
	if *r != want {
		t.Fatalf("Simulate = %+v, want %+v", *r, want)
	}
}

func TestZeroDemandNeverStalls(t *testing.T) {
	cfg := base()
	cfg.DemandRate = 0
	r, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stalled != 0 || r.Served != 0 {
		t.Errorf("no demand: served %d stalled %d", r.Served, r.Stalled)
	}
	if r.AvgOccupancy <= 0 {
		t.Error("buffer should fill with no demand")
	}
}

func TestOversupplyServesEverything(t *testing.T) {
	cfg := base()
	// Supply 2*10*0.9/100 = 0.18 states/cycle vs demand 0.05.
	cfg.DemandRate = 0.05
	r, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.StallFraction() > 0.05 {
		t.Errorf("oversupplied farm stalls %.1f%% of requests", 100*r.StallFraction())
	}
	if r.Wasted == 0 {
		t.Error("oversupply with a finite buffer should waste some states")
	}
}

func TestUndersupplyStalls(t *testing.T) {
	cfg := base()
	cfg.DemandRate = 1.0 // demand 1 state/cycle vs supply 0.18
	r, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.StallFraction() < 0.5 {
		t.Errorf("undersupplied farm should stall most requests, got %.1f%%", 100*r.StallFraction())
	}
	if r.StallCycles == 0 {
		t.Error("stall cycles should accumulate")
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	a, err := Simulate(base())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(base())
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Error("same seed must reproduce identical results")
	}
}

func TestMaintenanceReserveCompensatesLosses(t *testing.T) {
	cfg := base()
	cfg.SuccessProb = 0.5 // heavy failures
	cfg.DemandRate = 0.08
	plain, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaintenanceReserve = 30
	backed, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if backed.CompensatedBatches == 0 {
		t.Fatal("reserve never exercised")
	}
	if backed.StallFraction() > plain.StallFraction() {
		t.Errorf("loss compensation should not increase stalls: %.3f vs %.3f",
			backed.StallFraction(), plain.StallFraction())
	}
}

func TestFactoriesFor(t *testing.T) {
	cfg := base()
	cfg.DemandRate = 0.5
	n := FactoriesFor(cfg, 1.1)
	// Need n * 10 * 0.9 / 100 >= 0.55 -> n >= 6.1 -> 7.
	if n != 7 {
		t.Errorf("factories = %d, want 7", n)
	}
	// And a farm with that many factories should mostly keep up.
	cfg.Factories = n
	cfg.BufferSize = 200
	r, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.StallFraction() > 0.15 {
		t.Errorf("sized farm stalls %.1f%%", 100*r.StallFraction())
	}
	if FactoriesFor(Config{}, 1) != 0 {
		t.Error("degenerate config should size to 0")
	}
}

func TestBufferSweepMonotoneTrend(t *testing.T) {
	cfg := base()
	cfg.DemandRate = 0.17 // just under supply: buffering matters
	pts, err := BufferSweep(cfg, []int{1, 10, 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatal("want 3 points")
	}
	if pts[2].StallFraction > pts[0].StallFraction {
		t.Errorf("bigger buffers should not stall more: %+v", pts)
	}
	if pts[2].AvgOccupancy < pts[0].AvgOccupancy {
		t.Errorf("bigger buffers should hold more: %+v", pts)
	}
}
