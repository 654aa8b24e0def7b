package opt

import (
	"context"
	"strings"
	"testing"

	"refocus/internal/arch"
	"refocus/internal/job"
)

func TestWithDefaults(t *testing.T) {
	s := Spec{Preset: "fb"}.WithDefaults()
	if s.Network != DefaultNetwork {
		t.Errorf("Network = %q, want %q", s.Network, DefaultNetwork)
	}
	if s.Strategy != StrategyEvolve {
		t.Errorf("Strategy = %q, want evolve", s.Strategy)
	}
	if s.Generations != DefaultGenerations || s.Population != DefaultPopulation {
		t.Errorf("budget = %dx%d, want defaults", s.Generations, s.Population)
	}
	if len(s.Objectives) != 4 {
		t.Errorf("Objectives = %v, want the four throughput axes", s.Objectives)
	}
	if len(s.Space.M) == 0 || len(s.Space.NRFCU) == 0 || len(s.Space.NLambda) == 0 || len(s.Space.Reuses) == 0 {
		t.Errorf("Space axes not defaulted: %+v", s.Space)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("defaulted spec invalid: %v", err)
	}
}

func TestWithDefaultsYieldObjective(t *testing.T) {
	s := Spec{Preset: "fb", YieldTrials: 8}.WithDefaults()
	found := false
	for _, o := range s.Objectives {
		if o == ObjectiveYield {
			found = true
		}
	}
	if !found {
		t.Errorf("YieldTrials > 0 should add the yield objective, got %v", s.Objectives)
	}
	var zero = s.Model
	if zero.RFCUFailProb == 0 && zero.WavelengthFailProb == 0 && zero.BufferLossSigmaDB == 0 {
		t.Error("yield search should default the fault model")
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("defaulted yield spec invalid: %v", err)
	}
}

func TestWithDefaultsCollapsesReusesForNonFeedback(t *testing.T) {
	s := Spec{Preset: "ff"}.WithDefaults()
	if len(s.Space.Reuses) != 1 {
		t.Errorf("feedforward base should collapse the Reuses axis, got %v", s.Space.Reuses)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("collapsed spec invalid: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	base := func() Spec { return Spec{Preset: "fb"}.WithDefaults() }
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"no design point", func(s *Spec) { s.Preset = "" }, "must name a Preset"},
		{"both preset and config", func(s *Spec) { s.Config = []byte("{}") }, "pick one"},
		{"bad preset", func(s *Spec) { s.Preset = "nope" }, "nope"},
		{"bad network", func(s *Spec) { s.Network = "nope" }, "nope"},
		{"unknown objective", func(s *Spec) { s.Objectives = []Objective{"speed"} }, "unknown objective"},
		{"repeated objective", func(s *Spec) { s.Objectives = []Objective{ObjectiveFPS, ObjectiveFPS} }, "repeated"},
		{"yield without trials", func(s *Spec) { s.Objectives = []Objective{ObjectiveYield} }, "YieldTrials"},
		{"unknown strategy", func(s *Spec) { s.Strategy = "magic" }, "unknown strategy"},
		{"retired strategy", func(s *Spec) { s.Strategy = "anneal" }, "unknown strategy"},
		{"zero generations", func(s *Spec) { s.Generations = -1 }, "Generations"},
		{"tiny population", func(s *Spec) { s.Population = 1 }, "Population"},
		{"budget blowout", func(s *Spec) { s.Generations = 64; s.Population = 256 }, "exceeds"},
		{"empty axis", func(s *Spec) { s.Space.M = nil }, "Space.M"},
		{"repeated axis value", func(s *Spec) { s.Space.M = []int{8, 8} }, "repeats"},
		{"negative axis value", func(s *Spec) { s.Space.NRFCU = []int{-4} }, "positive"},
		{"negative area budget", func(s *Spec) { s.AreaBudgetMM2 = -1 }, "AreaBudgetMM2"},
		{"negative power budget", func(s *Spec) { s.PowerBudgetW = -1 }, "PowerBudgetW"},
		{"yield trials blowout", func(s *Spec) { s.YieldTrials = 100000 }, "YieldTrials"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			tc.mut(&s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestIDStableAndDiscriminating(t *testing.T) {
	a := Spec{Preset: "fb", Seed: 7}.WithDefaults()
	b := Spec{Preset: "fb", Seed: 7}.WithDefaults()
	idA, err := a.ID()
	if err != nil {
		t.Fatal(err)
	}
	idB, err := b.ID()
	if err != nil {
		t.Fatal(err)
	}
	if idA != idB {
		t.Errorf("identical specs got different IDs: %s vs %s", idA, idB)
	}
	// The preset alias and the canonical name are the same design point.
	c := Spec{Preset: "ReFOCUS-FB", Seed: 7}.WithDefaults()
	idC, err := c.ID()
	if err != nil {
		t.Fatal(err)
	}
	if idC != idA {
		t.Errorf("preset alias changed the ID: %s vs %s", idC, idA)
	}
	// Any knob that changes the search changes the ID.
	for name, mut := range map[string]func(*Spec){
		"seed":     func(s *Spec) { s.Seed = 8 },
		"strategy": func(s *Spec) { s.Strategy = StrategyRandom },
		"budget":   func(s *Spec) { s.Population = 32 },
		"area":     func(s *Spec) { s.AreaBudgetMM2 = 150 },
	} {
		s := Spec{Preset: "fb", Seed: 7}.WithDefaults()
		mut(&s)
		id, err := s.ID()
		if err != nil {
			t.Fatal(err)
		}
		if id == idA {
			t.Errorf("changing %s did not change the ID", name)
		}
	}
}

// TestCandidateSeed: a candidate's recorded seed depends only on the
// search's root seed and its (generation, index) cell (job.CellSeed), is
// distinct across cells and from every generation's proposal seed, and
// changes with the root seed.
func TestCandidateSeed(t *testing.T) {
	eval := func(context.Context, Spec, arch.SystemConfig, string) (PointMetrics, error) {
		return PointMetrics{FPS: 1, FPSPerWatt: 1, FPSPerMM2: 1, PAP: 1, PowerW: 1, AreaMM2: 1}, nil
	}
	seedOf := func(spec Spec, gen, idx int) int64 {
		t.Helper()
		r := &Runner{Spec: spec, Eval: eval}
		c, err := r.runPoint(context.Background(), newGrid(spec, arch.FB()), nil, gen, idx, Candidate{})
		if err != nil {
			t.Fatal(err)
		}
		return c.Seed
	}
	spec := Spec{Preset: "fb", Seed: 42}.WithDefaults()
	seen := make(map[int64]bool)
	for gen := 0; gen < 8; gen++ {
		for idx := 0; idx < 16; idx++ {
			s := seedOf(spec, gen, idx)
			if s != job.CellSeed(spec.Seed, gen, idx) || s != seedOf(spec, gen, idx) {
				t.Fatalf("cell (%d,%d) seed %d is not job.CellSeed(%d, %d, %d)", gen, idx, s, spec.Seed, gen, idx)
			}
			if seen[s] {
				t.Fatalf("seed collision at (%d,%d)", gen, idx)
			}
			seen[s] = true
		}
	}
	for gen := 0; gen < 8; gen++ {
		if seen[generationSeed(spec.Seed, gen)] {
			t.Errorf("generation %d's proposal seed equals a candidate seed", gen)
		}
	}
	other := spec
	other.Seed = 43
	if seedOf(spec, 0, 0) == seedOf(other, 0, 0) {
		t.Error("different root seeds should give different cell seeds")
	}
}

func TestViolationAndFeasible(t *testing.T) {
	s := Spec{AreaBudgetMM2: 100, PowerBudgetW: 10}
	if !s.feasible(Metrics{AreaMM2: 100, PowerW: 10}) {
		t.Error("at-budget point should be feasible")
	}
	if s.feasible(Metrics{AreaMM2: 150, PowerW: 5}) {
		t.Error("over-area point should be infeasible")
	}
	v := s.violation(Metrics{AreaMM2: 150, PowerW: 20})
	if v <= 0.5 || v >= 2.5 {
		t.Errorf("violation = %g, want relative overshoot sum 1.5", v)
	}
	if un := (Spec{}); !un.feasible(Metrics{AreaMM2: 1e9, PowerW: 1e9}) {
		t.Error("unconstrained spec should accept everything")
	}
}
