package faults

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"refocus/internal/arch"
	"refocus/internal/nn"
)

// yieldNets keeps Monte Carlo tests fast: one small benchmark.
func yieldNets(t *testing.T) []nn.Network {
	t.Helper()
	net, ok := nn.ByName("ResNet-18")
	if !ok {
		t.Fatal("ResNet-18 missing")
	}
	return []nn.Network{net}
}

// TestYieldSweepDeterministic: the same seed yields a bit-identical
// result regardless of worker count (GOMAXPROCS 1 or 4) — fault sets are
// drawn before any parallel evaluation.
func TestYieldSweepDeterministic(t *testing.T) {
	cfg := arch.FB()
	model := MonteCarloModel{RFCUFailProb: 0.1, WavelengthFailProb: 0.05, BufferLossSigmaDB: 0.8}
	nets := yieldNets(t)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial, err := YieldSweep(context.Background(), cfg, nets, model, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(4)
	parallel, err := YieldSweep(context.Background(), cfg, nets, model, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("worker count changed the yield result:\nserial   %+v\nparallel %+v", serial, parallel)
	}
	other, err := YieldSweep(context.Background(), cfg, nets, model, 24, 8)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(serial, other) {
		t.Error("different seeds produced identical yield results")
	}
}

// TestYieldSweepHonest: degraded chips never beat nominal throughput,
// and a certain-death model reports hard failures rather than numbers.
func TestYieldSweepHonest(t *testing.T) {
	cfg := arch.FB()
	nets := yieldNets(t)
	res, err := YieldSweep(context.Background(), cfg, nets,
		MonteCarloModel{RFCUFailProb: 0.15, WavelengthFailProb: 0.05, BufferLossSigmaDB: 1}, 32, 42)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != 32 {
		t.Errorf("Trials %d, want 32", res.Trials)
	}
	if res.FPS.Max > res.NominalFPS*(1+1e-12) {
		t.Errorf("a degraded chip beat nominal: max FPS %g > nominal %g", res.FPS.Max, res.NominalFPS)
	}
	if res.FPS.Min > res.FPS.Median || res.FPS.Median > res.FPS.Max {
		t.Errorf("order statistics out of order: %+v", res.FPS)
	}

	dead, err := YieldSweep(context.Background(), cfg, nets, MonteCarloModel{RFCUFailProb: 1}, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if dead.Failed != 8 {
		t.Errorf("certain-death model: Failed %d of 8", dead.Failed)
	}
	if dead.FPS != (Distribution{}) {
		t.Errorf("failed trials leaked into the distribution: %+v", dead.FPS)
	}
}

// TestYieldSweepCancel: a canceled context aborts the sweep with its
// error instead of running every trial.
func TestYieldSweepCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := YieldSweep(ctx, arch.FB(), yieldNets(t), MonteCarloModel{RFCUFailProb: 0.1}, 64, 1)
	if err == nil {
		t.Fatal("canceled yield sweep returned no error")
	}
}

// TestSampleDeterministic: one rng state maps to exactly one fault set.
func TestSampleDeterministic(t *testing.T) {
	cfg := arch.FB()
	model := MonteCarloModel{RFCUFailProb: 0.3, WavelengthFailProb: 0.2, BufferLossSigmaDB: 0.5}
	a := model.Sample(rand.New(rand.NewSource(5)), cfg)
	b := model.Sample(rand.New(rand.NewSource(5)), cfg)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same rng state, different samples:\n%+v\n%+v", a, b)
	}
	if err := a.Validate(cfg); err != nil {
		t.Errorf("sampled fault set invalid: %v", err)
	}
}

// TestModelValidate rejects out-of-domain rates.
func TestModelValidate(t *testing.T) {
	for _, m := range []MonteCarloModel{
		{RFCUFailProb: -0.1}, {RFCUFailProb: 1.1},
		{WavelengthFailProb: 2}, {BufferLossSigmaDB: -1},
	} {
		if err := m.Validate(); err == nil {
			t.Errorf("invalid model accepted: %+v", m)
		}
	}
}

// TestDistribution: summary statistics of a known sample.
func TestDistribution(t *testing.T) {
	d := NewDistribution([]float64{4, 1, 3, 2, 5})
	if d.Min != 1 || d.Max != 5 || d.Median != 3 || d.Mean != 3 {
		t.Errorf("distribution of 1..5 wrong: %+v", d)
	}
}

// TestResilienceCurve: R falls monotonically with loss and the laser
// compensation never shrinks.
func TestResilienceCurve(t *testing.T) {
	pts, err := ResilienceCurve(arch.FB(), 8, 17)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 17 || pts[0].ExcessLossDB != 0 || pts[16].ExcessLossDB != 8 {
		t.Fatalf("curve endpoints wrong: %+v", pts)
	}
	if pts[0].EffectiveReuses != arch.FB().Reuses {
		t.Errorf("zero excess loss derated R to %d", pts[0].EffectiveReuses)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].EffectiveReuses > pts[i-1].EffectiveReuses {
			t.Errorf("R rose with loss at %g dB", pts[i].ExcessLossDB)
		}
	}
	if _, err := ResilienceCurve(arch.FF(), 2, 5); err == nil {
		t.Error("feedforward config accepted for a feedback resilience curve")
	}
}
