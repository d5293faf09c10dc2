// Package montecarlo samples the stochastic behaviour of multi-level
// block-code factories that the analytic first-order model in
// internal/resource summarizes: per-module syndrome failures (§II.F),
// the O'Gorman-Campbell checkpoint that discards whole module groups on
// any member failure ([20], §II.G), and the loss-compensation maintenance
// reserve sketched in the paper's future work (§IX). Where the analytic
// model assumes every module of a round must pass, the sampler also
// reports partial yield — how many output states a run actually delivers
// when some donor modules fail — which is what a prepared-state buffer
// (internal/system) consumes.
package montecarlo

import (
	"fmt"
	"math/rand"

	"magicstate/internal/bravyi"
	"magicstate/internal/resource"
)

// Config describes one sampling campaign.
type Config struct {
	// Params is the factory under study.
	Params bravyi.Params
	// Errors supplies injected-state and physical error rates; zero
	// value uses resource.DefaultError.
	Errors resource.ErrorModel
	// Trials is the number of independent factory executions to sample
	// (default 10000).
	Trials int
	// Seed drives the sampler.
	Seed int64
	// Checkpoints enables the group-discard rule of [20]: modules of a
	// round are partitioned into groups of min(3K+8, M_r), the donor-set
	// size of one next-round module, and one failure discards the whole
	// group's outputs.
	Checkpoints bool
	// Reserve holds per-round spare module counts for loss compensation
	// (§IX): round r runs Reserve[r-1] extra modules whose outputs
	// replace states lost to failures. Nil means no reserve.
	Reserve []int
}

func (c *Config) fill() error {
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if c.Errors == (resource.ErrorModel{}) {
		c.Errors = resource.DefaultError()
	}
	if c.Trials == 0 {
		c.Trials = 10000
	}
	if c.Trials < 1 {
		return fmt.Errorf("montecarlo: trials must be >= 1, got %d", c.Trials)
	}
	if len(c.Reserve) != 0 && len(c.Reserve) != c.Params.Levels {
		return fmt.Errorf("montecarlo: reserve has %d rounds, factory has %d", len(c.Reserve), c.Params.Levels)
	}
	for r, n := range c.Reserve {
		if n < 0 {
			return fmt.Errorf("montecarlo: negative reserve %d in round %d", n, r+1)
		}
	}
	return nil
}

// Trial records one sampled factory execution.
type Trial struct {
	// Outputs is the number of distilled states the run delivered
	// (0..Capacity).
	Outputs int
	// ModulesRun counts every module executed, reserves included.
	ModulesRun int
	// ModulesFailed counts syndrome failures across all rounds.
	ModulesFailed int
	// GroupsDiscarded counts checkpoint group discards (zero without
	// Checkpoints).
	GroupsDiscarded int
}

// Summary aggregates a campaign.
type Summary struct {
	Config Config
	// MeanOutputs is the average number of delivered states per run.
	MeanOutputs float64
	// FullYieldRate is the fraction of runs delivering full capacity.
	FullYieldRate float64
	// ZeroYieldRate is the fraction of runs delivering nothing.
	ZeroYieldRate float64
	// MeanModulesRun and MeanFailures are per-run averages.
	MeanModulesRun float64
	MeanFailures   float64
	// MeanGroupsDiscarded is the per-run average checkpoint discard count.
	MeanGroupsDiscarded float64
	// ExpectedRunsPerFull estimates runs needed per full-capacity batch
	// (1/FullYieldRate; +Inf style large value when none observed).
	ExpectedRunsPerFull float64
	// ExpectedRawPerState is raw input states consumed per delivered
	// state across the campaign.
	ExpectedRawPerState float64
	// Outputs histograms delivered-state counts: Outputs[n] is the
	// number of runs that delivered exactly n states.
	Outputs []int
}

// Run samples cfg.Trials factory executions and aggregates them.
func Run(cfg Config) (*Summary, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	errs := cfg.Errors.RoundErrors(cfg.Params)

	capn := cfg.Params.Capacity()
	sum := &Summary{Config: cfg, Outputs: make([]int, capn+1)}
	totalOutputs := 0
	fulls := 0
	zeros := 0
	totalRaw := 0
	for i := 0; i < cfg.Trials; i++ {
		tr := sample(cfg, errs, rng)
		sum.Outputs[tr.Outputs]++
		totalOutputs += tr.Outputs
		if tr.Outputs == capn {
			fulls++
		}
		if tr.Outputs == 0 {
			zeros++
		}
		sum.MeanModulesRun += float64(tr.ModulesRun)
		sum.MeanFailures += float64(tr.ModulesFailed)
		sum.MeanGroupsDiscarded += float64(tr.GroupsDiscarded)
		totalRaw += cfg.Params.Inputs()
		if len(cfg.Reserve) > 0 {
			totalRaw += cfg.Reserve[0] * (3*cfg.Params.K + 8)
		}
	}
	n := float64(cfg.Trials)
	sum.MeanOutputs = float64(totalOutputs) / n
	sum.FullYieldRate = float64(fulls) / n
	sum.ZeroYieldRate = float64(zeros) / n
	sum.MeanModulesRun /= n
	sum.MeanFailures /= n
	sum.MeanGroupsDiscarded /= n
	if fulls > 0 {
		sum.ExpectedRunsPerFull = n / float64(fulls)
	} else {
		sum.ExpectedRunsPerFull = 1e18
	}
	if totalOutputs > 0 {
		sum.ExpectedRawPerState = float64(totalRaw) / float64(totalOutputs)
	} else {
		sum.ExpectedRawPerState = 1e18
	}
	return sum, nil
}

// sample executes one factory run. Round r starts with the surviving
// donor modules of round r−1; each round-r module succeeds independently
// with the first-order probability at that round's input error rate. A
// round-(r+1) module is runnable when enough distinct surviving donors
// exist to cover its 3K+8 inputs (one state per donor, k states per donor
// total); a greedy round-robin allocation achieves the matching bound
// min(M, floor(k·S / (3K+8))) for S ≥ 3K+8 donors.
func sample(cfg Config, errs []float64, rng *rand.Rand) Trial {
	p := cfg.Params
	var tr Trial
	need := 3*p.K + 8

	// supply is the number of next-round modules that can be fed.
	runnable := p.ModulesInRound(1)
	for r := 1; r <= p.Levels; r++ {
		ps := clampProb(p.SuccessProbability(errs[r-1]))
		modules := runnable
		reserve := 0
		if len(cfg.Reserve) > 0 {
			reserve = cfg.Reserve[r-1]
		}
		total := modules + reserve
		tr.ModulesRun += total
		// Sample successes over the round's modules (reserves are
		// indistinguishable from regulars: they just add headroom).
		successes := 0
		if cfg.Checkpoints {
			gs := min(need, total)
			for start := 0; start < total; start += gs {
				size := gs
				if start+size > total {
					size = total - start
				}
				groupOK := true
				for i := 0; i < size; i++ {
					if rng.Float64() >= ps {
						tr.ModulesFailed++
						groupOK = false
					}
				}
				if groupOK {
					successes += size
				} else {
					tr.GroupsDiscarded++
				}
			}
		} else {
			for i := 0; i < total; i++ {
				if rng.Float64() < ps {
					successes++
				} else {
					tr.ModulesFailed++
				}
			}
		}
		// Cap the useful successes at the modules the round was asked
		// for: reserve successes only backfill losses.
		if successes > modules {
			successes = modules
		}
		if r == p.Levels {
			tr.Outputs = successes * p.K
			return tr
		}
		if successes < need {
			// Not enough distinct donors for even one next-round module.
			return tr
		}
		next := p.ModulesInRound(r + 1)
		feed := successes * p.K / need
		if feed < next {
			runnable = feed
		} else {
			runnable = next
		}
		if runnable == 0 {
			return tr
		}
	}
	return tr
}

func clampProb(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// AnalyticFullYield returns the first-order probability that every module
// of every round passes — the event the analytic model in
// resource.ExpectedRunsPerSuccess prices. The sampler's FullYieldRate
// converges to this when no reserve masks failures and every round's
// module count survives intact.
func AnalyticFullYield(p bravyi.Params, em resource.ErrorModel) float64 {
	errs := em.RoundErrors(p)
	yield := 1.0
	for r := 1; r <= p.Levels; r++ {
		ps := clampProb(p.SuccessProbability(errs[r-1]))
		for i := 0; i < p.ModulesInRound(r); i++ {
			yield *= ps
		}
	}
	return yield
}
