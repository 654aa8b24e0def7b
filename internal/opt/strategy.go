package opt

import (
	"fmt"
	"math/rand"
)

// Strategy vocabulary: the values Spec.Strategy accepts.
const (
	// StrategyRandom is uniform random sampling — the baseline every
	// other strategy must beat on hypervolume.
	StrategyRandom = "random"
	// StrategyEvolve is an NSGA-II-style evolutionary search:
	// non-dominated sorting plus crowding distance drive binary
	// tournament selection, uniform crossover and single-step mutation.
	StrategyEvolve = "evolve"
	// StrategyHalving is successive halving: each rung keeps the best
	// half of the previous rung (by constrained non-dominated rank) and
	// spends its shrinking budget refining around the survivors.
	StrategyHalving = "halving"
)

// Strategies lists the registered strategy names, in a fixed order.
func Strategies() []string {
	return []string{StrategyRandom, StrategyEvolve, StrategyHalving}
}

// ProposalContext is everything a Strategy sees when proposing one
// generation. Proposals must be a pure function of the context and the
// provided RNG (which the runner seeds from (Spec.Seed, Gen)): a resumed
// search re-proposes every generation from its checkpointed history, and
// determinism here is what makes the resumed front byte-identical.
type ProposalContext struct {
	// Spec is the defaulted, validated search spec.
	Spec Spec
	// Dims are the axis lengths of the searched grid, in Candidate
	// index order.
	Dims [NumAxes]int
	// Gen is the generation being proposed.
	Gen int
	// Budget caps the number of candidates this generation may return;
	// strategies may propose fewer (successive halving does) but never
	// more — the runner truncates excess.
	Budget int
	// History holds every candidate evaluated in earlier generations,
	// in canonical (Gen, Index) order.
	History []CandidateResult

	grid *grid
}

// Random draws a uniform candidate from the grid.
func (pc ProposalContext) Random(rng *rand.Rand) Candidate { return pc.grid.random(rng) }

// Neighbor moves one uniformly chosen axis of c a single step, clamped
// to the grid.
func (pc ProposalContext) Neighbor(rng *rand.Rand, c Candidate) Candidate {
	return pc.grid.neighbor(rng, c)
}

// Clamp forces every index of c into its axis range.
func (pc ProposalContext) Clamp(c Candidate) Candidate { return pc.grid.clamp(c) }

// Strategy proposes each generation's candidates from the evaluated
// history. Implementations are stateless: everything a proposal depends
// on must come from the ProposalContext and the passed RNG, so that a
// resumed search reconstructs identical proposals from its checkpoint.
type Strategy interface {
	// Name returns the Spec.Strategy vocabulary name.
	Name() string
	// Propose returns generation pc.Gen's candidates, at most pc.Budget
	// of them.
	Propose(rng *rand.Rand, pc ProposalContext) []Candidate
}

// strategyFor resolves a Spec.Strategy name.
func strategyFor(name string) (Strategy, error) {
	switch name {
	case StrategyRandom:
		return randomStrategy{}, nil
	case StrategyEvolve:
		return evolveStrategy{}, nil
	case StrategyHalving:
		return halvingStrategy{}, nil
	default:
		return nil, fmt.Errorf("opt: unknown strategy %q (have %v)", name, Strategies())
	}
}

// randomStrategy samples the grid uniformly — no learning, the
// hypervolume baseline.
type randomStrategy struct{}

// Name returns "random".
func (randomStrategy) Name() string { return StrategyRandom }

// Propose draws Budget uniform candidates.
func (randomStrategy) Propose(rng *rand.Rand, pc ProposalContext) []Candidate {
	out := make([]Candidate, pc.Budget)
	for i := range out {
		out[i] = pc.Random(rng)
	}
	return out
}
