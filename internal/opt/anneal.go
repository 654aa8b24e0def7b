package opt

import (
	"math"
	"math/rand"

	"refocus/internal/job"
)

// annealStrategy is multi-objective simulated annealing: Budget
// independent walkers, each scalarizing the objectives with its own
// fixed random weight vector (a classic way to spread walkers across a
// Pareto front) and following Metropolis acceptance under geometric
// cooling. Walkers are stateless between calls — each Propose replays a
// walker's accept/reject chain from the evaluated history, so a resumed
// search reconstructs the exact walker states an uninterrupted run had.
type annealStrategy struct{}

// Name returns "anneal".
func (annealStrategy) Name() string { return StrategyAnneal }

// Annealing schedule: energies are normalized into [0,1], the initial
// temperature accepts most uphill moves, and each generation cools
// geometrically.
const (
	annealT0   = 0.5
	annealCool = 0.8
)

// annealSalt offsets the index argument of CandidateSeed for the
// strategy's internal RNG streams (walker weights, acceptance draws), so
// they never collide with the candidate seeds that drive yield sweeps.
const annealSalt = 1 << 28

// Propose returns a random first generation, then one neighbor proposal
// per walker from its replayed current state.
func (annealStrategy) Propose(rng *rand.Rand, pc ProposalContext) []Candidate {
	if pc.Gen == 0 || len(pc.History) == 0 {
		return randomStrategy{}.Propose(rng, pc)
	}
	byCell := pc.byCell()
	lo, hi := objectiveBounds(pc.Spec, pc.History)
	out := make([]Candidate, pc.Budget)
	for w := range out {
		weights := walkerWeights(pc.Spec, w)
		energy := func(r CandidateResult, ok bool) float64 {
			if !ok || r.Invalid {
				return math.Inf(1)
			}
			if !r.Feasible {
				// Infeasible points sit above every feasible energy
				// (which lives in [-1, 0]), ordered by violation.
				return 1 + pc.Spec.violation(r.Metrics)
			}
			vec := pc.Spec.objectiveVector(r.Metrics)
			e := 0.0
			for i, v := range vec {
				if hi[i] > lo[i] {
					e -= weights[i] * (v - lo[i]) / (hi[i] - lo[i])
				}
			}
			return e
		}

		// Replay the walker's Metropolis chain over the completed
		// generations to recover its current state.
		state, ok := byCell[job.Cell{0, w}]
		cur := energy(state, ok)
		for g := 1; g < pc.Gen; g++ {
			prop, ok := byCell[job.Cell{g, w}]
			if !ok {
				continue
			}
			e := energy(prop, true)
			temp := annealT0 * math.Pow(annealCool, float64(g-1))
			accept := e <= cur
			if !accept && !math.IsInf(e, 1) {
				draw := rand.New(rand.NewSource(CandidateSeed(pc.Spec.Seed, g, w+annealSalt)))
				accept = draw.Float64() < math.Exp(-(e-cur)/temp)
			}
			if accept {
				state, ok = prop, true
				cur = e
			}
		}
		if !ok {
			out[w] = pc.Random(rng)
			continue
		}
		out[w] = pc.Neighbor(rng, state.Candidate)
	}
	return out
}

// walkerWeights derives walker w's fixed scalarization weights (summing
// to 1) purely from the spec seed, so they survive restarts.
func walkerWeights(spec Spec, w int) []float64 {
	rng := rand.New(rand.NewSource(CandidateSeed(spec.Seed, -1, w+annealSalt)))
	weights := make([]float64, len(spec.Objectives))
	sum := 0.0
	for i := range weights {
		weights[i] = 0.05 + rng.Float64()
		sum += weights[i]
	}
	for i := range weights {
		weights[i] /= sum
	}
	return weights
}

// objectiveBounds returns the per-objective min and max over the valid
// feasible history, used to normalize energies. Degenerate or empty
// bounds leave hi == lo, which the energy function treats as "axis
// contributes nothing".
func objectiveBounds(spec Spec, hist []CandidateResult) (lo, hi []float64) {
	n := len(spec.Objectives)
	lo = make([]float64, n)
	hi = make([]float64, n)
	first := true
	for _, r := range hist {
		if r.Invalid || !r.Feasible {
			continue
		}
		vec := spec.objectiveVector(r.Metrics)
		for i, v := range vec {
			if first || v < lo[i] {
				lo[i] = v
			}
			if first || v > hi[i] {
				hi[i] = v
			}
		}
		first = false
	}
	return lo, hi
}
