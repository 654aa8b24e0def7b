package opt

import (
	"fmt"
	"math/rand"

	"refocus/internal/arch"
)

// grid is a spec's resolved search space: the base design point plus the
// four axis value lists, in Candidate index order.
type grid struct {
	base arch.SystemConfig
	axes [NumAxes][]int
}

// newGrid pairs the spec's axis lists with its resolved base config.
// Call on the defaulted, validated form.
func newGrid(s Spec, base arch.SystemConfig) *grid {
	return &grid{
		base: base,
		axes: [NumAxes][]int{s.Space.M, s.Space.NRFCU, s.Space.NLambda, s.Space.Reuses},
	}
}

// dims returns the axis lengths.
func (g *grid) dims() [NumAxes]int {
	var d [NumAxes]int
	for i := range g.axes {
		d[i] = len(g.axes[i])
	}
	return d
}

// clamp forces every index of c into its axis range.
func (g *grid) clamp(c Candidate) Candidate {
	for i := range c {
		if c[i] < 0 {
			c[i] = 0
		}
		if c[i] >= len(g.axes[i]) {
			c[i] = len(g.axes[i]) - 1
		}
	}
	return c
}

// values resolves a candidate's axis indices to (M, NRFCU, NLambda,
// Reuses) values.
func (g *grid) values(c Candidate) (m, n, l, r int) {
	c = g.clamp(c)
	return g.axes[0][c[0]], g.axes[1][c[1]], g.axes[2][c[2]], g.axes[3][c[3]]
}

// config materializes a candidate as a named, validated design point.
// The name depends only on the axis values — never on the search — so
// the same point proposed by two different searches shares one canonical
// config hash and therefore one result-cache entry.
func (g *grid) config(c Candidate) (arch.SystemConfig, error) {
	m, n, l, r := g.values(c)
	cfg := g.base
	cfg.Name = fmt.Sprintf("opt-M%d-N%d-L%d-R%d", m, n, l, r)
	cfg.M = m
	cfg.NRFCU = n
	cfg.NLambda = l
	cfg.Reuses = r
	if err := cfg.Validate(); err != nil {
		return arch.SystemConfig{}, err
	}
	return cfg, nil
}

// random draws a uniform candidate.
func (g *grid) random(rng *rand.Rand) Candidate {
	var c Candidate
	for i := range c {
		c[i] = rng.Intn(len(g.axes[i]))
	}
	return c
}

// neighbor moves one uniformly chosen axis of c a single step up or
// down, clamped to the grid — successive halving's refinement move.
func (g *grid) neighbor(rng *rand.Rand, c Candidate) Candidate {
	axis := rng.Intn(NumAxes)
	if rng.Intn(2) == 0 {
		c[axis]++
	} else {
		c[axis]--
	}
	return g.clamp(c)
}
