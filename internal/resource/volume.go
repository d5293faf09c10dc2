package resource

import "magicstate/internal/bravyi"

// Volume is a space-time cost: logical tile area times cycles, the metric
// of Table I and Fig. 10e/10f.
type Volume struct {
	Area    int // logical tiles (bounding box of the layout)
	Latency int // cycles
}

// SpaceTime returns Area x Latency in qubit-cycles.
func (v Volume) SpaceTime() float64 { return float64(v.Area) * float64(v.Latency) }

// ExpectedRunsPerSuccess returns the expected number of factory executions
// needed per successful batch given the first-order module success
// probability compounded over all modules, with the checkpoint structure
// of [20] discarding failed groups. It is a throughput derating factor for
// provisioning estimates (examples/tbudget).
func ExpectedRunsPerSuccess(p bravyi.Params, em ErrorModel) float64 {
	errs := em.RoundErrors(p)
	succ := 1.0
	for r := 1; r <= p.Levels; r++ {
		sm := p.SuccessProbability(errs[r-1])
		// All modules of the round must pass for the batch to proceed at
		// full capacity; compounding per module.
		for i := 0; i < p.ModulesInRound(r); i++ {
			succ *= sm
		}
	}
	if succ <= 0 {
		return 1e18
	}
	return 1 / succ
}
