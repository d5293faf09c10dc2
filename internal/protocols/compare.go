package protocols

import (
	"fmt"
	"math"
)

// Plan is the outcome of provisioning one protocol family for a target
// output fidelity.
type Plan struct {
	// Protocol is the composed (possibly multilevel) protocol that meets
	// the target.
	Protocol Protocol
	// Levels is the recursion depth used.
	Levels int
	// OutputError is the achieved output error rate.
	OutputError float64
	// RawPerOutput is the ideal raw-state cost per distilled state.
	RawPerOutput float64
	// ExpectedRawPerOutput folds in first-order failure retries.
	ExpectedRawPerOutput float64
	// SuccessProbability is the full-run success probability.
	SuccessProbability float64
	// Qubits is the peak logical-qubit footprint.
	Qubits int
	// VolumeProxy is a technology-independent space-time proxy:
	// qubit-steps per distilled output, charging every level its
	// footprint for a duration proportional to its input count and
	// dividing by expected yield. Absolute values are not comparable to
	// simulated cycle counts; ratios between protocols are the point.
	VolumeProxy float64
}

// Provision composes base with itself until the multilevel output error
// meets target, starting from injected error eps. It fails if the base
// protocol does not suppress error at eps (i.e. distillation diverges) or
// if maxLevels is exceeded.
func Provision(base Protocol, eps, target float64, maxLevels int) (*Plan, error) {
	if eps <= 0 || target <= 0 {
		return nil, fmt.Errorf("protocols: error rates must be positive (eps=%g target=%g)", eps, target)
	}
	if base.OutputError(eps) >= eps {
		return nil, fmt.Errorf("protocols: %s does not suppress error at eps=%g (output %g)",
			base.Name(), eps, base.OutputError(eps))
	}
	if maxLevels <= 0 {
		maxLevels = 8
	}
	for l := 1; l <= maxLevels; l++ {
		ml, err := NewMultilevel(base, l)
		if err != nil {
			return nil, err
		}
		var p Protocol = ml
		if l == 1 {
			p = base
		}
		if out := p.OutputError(eps); out <= target {
			return planFor(p, l, eps, out), nil
		}
	}
	return nil, fmt.Errorf("protocols: %s cannot reach %g from %g within %d levels",
		base.Name(), target, eps, maxLevels)
}

func planFor(p Protocol, levels int, eps, out float64) *Plan {
	ps := p.SuccessProbability(eps)
	plan := &Plan{
		Protocol:             p,
		Levels:               levels,
		OutputError:          out,
		RawPerOutput:         RawPerOutput(p),
		ExpectedRawPerOutput: ExpectedRawPerOutput(p, eps),
		SuccessProbability:   ps,
		Qubits:               p.Qubits(),
	}
	plan.VolumeProxy = volumeProxy(p, levels, eps)
	return plan
}

// volumeProxy charges each level its concurrent footprint times a
// duration proportional to its per-module input count, then normalizes by
// outputs and expected yield.
func volumeProxy(p Protocol, levels int, eps float64) float64 {
	ps := p.SuccessProbability(eps)
	if ps <= 0 {
		return math.Inf(1)
	}
	var vol float64
	if ml, ok := p.(Multilevel); ok {
		for r := 1; r <= ml.Levels; r++ {
			modules := ipow(ml.Base.Inputs(), ml.Levels-r) * ipow(ml.Base.Outputs(), r-1)
			vol += float64(modules*ml.Base.Qubits()) * float64(ml.Base.Inputs())
		}
	} else {
		vol = float64(p.Qubits()) * float64(p.Inputs())
	}
	return vol / (float64(p.Outputs()) * ps)
}

// DefaultCandidates returns the protocol set of the §III comparison: the
// original 15→1, Bravyi-Haah at a few block sizes, and the asymptotic
// Haah-Hastings model at the given working point.
func DefaultCandidates(eps float64) []Protocol {
	var out []Protocol
	out = append(out, BravyiKitaev15{})
	for _, k := range []int{1, 2, 4, 8} {
		bh, err := NewBravyiHaah(k)
		if err != nil {
			panic(err) // static ks are always valid
		}
		out = append(out, bh)
	}
	out = append(out, DefaultHaahHastings().AtWorkingPoint(eps))
	return out
}
