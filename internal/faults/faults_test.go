package faults

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"refocus/internal/arch"
	"refocus/internal/dataflow"
	"refocus/internal/nn"
)

var update = flag.Bool("update", false, "regenerate golden files")

// testNet returns the ResNet-50 benchmark.
func testNet(t *testing.T) nn.Network {
	t.Helper()
	net, ok := nn.ByName("ResNet-50")
	if !ok {
		t.Fatal("ResNet-50 missing")
	}
	return net
}

// namedFaultSet is the golden scenario of the acceptance criteria:
// two dead RFCUs plus one failed wavelength.
func namedFaultSet() FaultSet {
	return FaultSet{
		Name:            "2dead-1lambda",
		DeadRFCUs:       []int{3, 11},
		DeadWavelengths: map[int][]int{5: {1}},
	}
}

// TestZeroFaultBitIdentical: degrading with a zero fault set returns the
// config unchanged, and on every preset and registry network the one
// evaluate call gives bit-identical reports for a nil fault set, a zero
// fault set and arch.EvaluateAllCtx — the existing golden report (pinned
// in internal/arch) is untouched. A nil set reports no degradation; a
// non-nil one reports exactly Degrade's record.
func TestZeroFaultBitIdentical(t *testing.T) {
	cfg := arch.FB()
	eff, deg, err := FaultSet{}.Degrade(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(eff, cfg) {
		t.Errorf("zero fault set changed the config:\nbefore %+v\nafter  %+v", cfg, eff)
	}
	if deg.HealthyRFCUs != cfg.NRFCU || deg.EffectiveLambda != cfg.NLambda || deg.EffectiveReuses != cfg.Reuses {
		t.Errorf("zero fault set degradation not the identity: %+v", deg)
	}
	got, err := Evaluate(cfg, FaultSet{}, testNet(t))
	if err != nil {
		t.Fatal(err)
	}
	if want := arch.MustEvaluate(cfg, testNet(t)); got.Report != want {
		t.Errorf("zero-fault report differs from arch.Evaluate:\ngot  %+v\nwant %+v", got.Report, want)
	}

	ctx := context.Background()
	nets := nn.Networks()
	for _, p := range arch.Presets() {
		cfg := p.Build()
		want, err := arch.EvaluateAllCtx(ctx, cfg, nets)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		healthy, deg, err := EvaluateAllCtx(ctx, cfg, nil, nets)
		if err != nil || deg != nil {
			t.Fatalf("%s: nil fault set: degradation %+v, err %v", p.Name, deg, err)
		}
		zero, zeroDeg, err := EvaluateAllCtx(ctx, cfg, &FaultSet{}, nets)
		if err != nil {
			t.Fatalf("%s: zero fault set: %v", p.Name, err)
		}
		_, wantDeg, err := FaultSet{}.Degrade(cfg)
		if err != nil || zeroDeg == nil || *zeroDeg != wantDeg {
			t.Errorf("%s: zero fault set degradation %+v, want %+v (err %v)", p.Name, zeroDeg, wantDeg, err)
		}
		for i, net := range nets {
			if healthy[i] != want[i] || zero[i] != want[i] {
				t.Errorf("%s on %s: reports differ from arch.EvaluateAllCtx:\nnil  %+v\nzero %+v\nwant %+v", p.Name, net.Name, healthy[i], zero[i], want[i])
			}
		}

		fs := namedFaultSet()
		if fs.Validate(cfg) != nil {
			continue // the named set's units do not exist on this preset
		}
		_, wantDeg, err = fs.Degrade(cfg)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if _, gotDeg, err := EvaluateAllCtx(ctx, cfg, &fs, nets); err != nil || gotDeg == nil || *gotDeg != wantDeg {
			t.Errorf("%s: named fault set degradation %+v, want %+v (err %v)", p.Name, gotDeg, wantDeg, err)
		}
	}
}

// TestGoldenDegradedResNet50 pins the degraded ResNet-50 report for the
// named fault set bit-for-bit (run with -update to regenerate after an
// intentional model change) and asserts the throughput drop is exactly
// the dataflow remapping math — never a silently healthy number.
func TestGoldenDegradedResNet50(t *testing.T) {
	cfg := arch.FB()
	net := testNet(t)
	fs := namedFaultSet()
	got, err := Evaluate(cfg, fs, net)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "golden-degraded-resnet50.json")
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want Report
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("degraded report drifted from golden:\ngot  %+v\nwant %+v", got, want)
	}

	// The latency must equal the nominal latency scaled by exactly the
	// remapped dataflow's cycle ratio: 14 healthy RFCUs, lockstep λ=1.
	if got.Degradation.HealthyRFCUs != 14 || got.Degradation.EffectiveLambda != 1 {
		t.Fatalf("unexpected remapping: %+v", got.Degradation)
	}
	nominalDF := cfg.DataflowConfig()
	degradedDF := nominalDF
	degradedDF.NRFCU = 14
	degradedDF.NLambda = 1
	evNom, err := dataflow.NetworkEvents(net, nominalDF)
	if err != nil {
		t.Fatal(err)
	}
	evDeg, err := dataflow.NetworkEvents(net, degradedDF)
	if err != nil {
		t.Fatal(err)
	}
	healthy := arch.MustEvaluate(cfg, net)
	wantLatency := healthy.Latency * (evDeg.Cycles / evNom.Cycles)
	if rel := (got.Latency - wantLatency) / wantLatency; rel > 1e-12 || rel < -1e-12 {
		t.Errorf("degraded latency %g, remapping math says %g", got.Latency, wantLatency)
	}
	if got.FPS >= healthy.FPS {
		t.Errorf("degraded FPS %g not below healthy %g", got.FPS, healthy.FPS)
	}
	// Area stays the physical chip's: dead silicon is not reclaimed.
	if got.Area != healthy.Area {
		t.Errorf("degraded area %+v differs from the physical chip's %+v", got.Area, healthy.Area)
	}
}

// TestDegradeRemapsAllLambdaDeadRFCU: a unit with every wavelength dead
// is as dead as a listed one, and survivors don't inherit its λ floor.
func TestDegradeRemapsAllLambdaDeadRFCU(t *testing.T) {
	cfg := arch.FB() // NRFCU=16, NLambda=2
	fs := FaultSet{DeadWavelengths: map[int][]int{7: {0, 1}}}
	_, deg, err := fs.Degrade(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if deg.HealthyRFCUs != 15 {
		t.Errorf("HealthyRFCUs %d, want 15 (unit 7 has no working wavelength)", deg.HealthyRFCUs)
	}
	if deg.EffectiveLambda != 2 {
		t.Errorf("EffectiveLambda %d, want 2 (the dead unit must not set the lockstep floor)", deg.EffectiveLambda)
	}
}

// TestDegradeNothingRuns: a machine with no usable unit is a hard
// error, not a report.
func TestDegradeNothingRuns(t *testing.T) {
	cfg := arch.FB()
	all := make([]int, cfg.NRFCU)
	for i := range all {
		all[i] = i
	}
	_, _, err := FaultSet{DeadRFCUs: all}.Degrade(cfg)
	if !errors.Is(err, ErrNothingRuns) {
		t.Errorf("all-dead machine: err %v, want ErrNothingRuns", err)
	}
	lams := make(map[int][]int, cfg.NRFCU)
	for i := 0; i < cfg.NRFCU; i++ {
		lams[i] = []int{0, 1}
	}
	_, _, err = FaultSet{DeadWavelengths: lams}.Degrade(cfg)
	if !errors.Is(err, ErrNothingRuns) {
		t.Errorf("all-wavelengths-dead machine: err %v, want ErrNothingRuns", err)
	}
	if _, err := Evaluate(cfg, FaultSet{DeadRFCUs: all}, testNet(t)); !errors.Is(err, ErrNothingRuns) {
		t.Errorf("Evaluate of dead machine: err %v, want ErrNothingRuns", err)
	}
}

// TestReuseDeratingMonotone: effective R never increases with excess
// loss, derates below nominal once the dynamic range overflows, and the
// buffer is bypassed under absurd loss.
func TestReuseDeratingMonotone(t *testing.T) {
	cfg := arch.FB()
	prev := cfg.Reuses
	for _, loss := range []float64{0, 0.5, 1, 1.5, 2, 4, 8, 16, 64} {
		_, deg, err := (FaultSet{BufferExcessLossDB: loss}).Degrade(cfg)
		if err != nil {
			t.Fatalf("loss %g: %v", loss, err)
		}
		if deg.EffectiveReuses > prev {
			t.Errorf("loss %g dB: R rose from %d to %d", loss, prev, deg.EffectiveReuses)
		}
		prev = deg.EffectiveReuses
	}
	if prev != 0 {
		t.Errorf("R=%d at 64 dB excess loss, want buffer bypassed (0)", prev)
	}
	_, deg, err := (FaultSet{BufferExcessLossDB: 1.5}).Degrade(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if deg.EffectiveReuses >= cfg.Reuses {
		t.Errorf("1.5 dB excess loss left R at %d, expected a derate below %d", deg.EffectiveReuses, cfg.Reuses)
	}
}

// TestValidateRejects: out-of-range indices, duplicates, and deratings
// outside their domain name the offending field.
func TestValidateRejects(t *testing.T) {
	cfg := arch.FB()
	bad := []FaultSet{
		{DeadRFCUs: []int{16}},
		{DeadRFCUs: []int{-1}},
		{DeadRFCUs: []int{2, 2}},
		{DeadWavelengths: map[int][]int{0: {2}}},
		{DeadWavelengths: map[int][]int{16: {0}}},
		{DeadWavelengths: map[int][]int{0: {1, 1}}},
		{BufferExcessLossDB: -0.1},
		{ADCEnergyFactor: 0.5},
		{PDResponsivityDrop: 1},
		{PDResponsivityDrop: -0.1},
		{MaxDynamicRange: 1},
	}
	for i, fs := range bad {
		if err := fs.Validate(cfg); err == nil {
			t.Errorf("case %d (%+v): invalid fault set accepted", i, fs)
		}
	}
	if err := namedFaultSet().Validate(cfg); err != nil {
		t.Errorf("valid fault set rejected: %v", err)
	}
}

// TestHashCanonical: unit-list ordering does not split identities, and
// different fault sets have different hashes.
func TestHashCanonical(t *testing.T) {
	a := FaultSet{DeadRFCUs: []int{3, 11}, DeadWavelengths: map[int][]int{5: {1, 0}}}
	b := FaultSet{DeadRFCUs: []int{11, 3}, DeadWavelengths: map[int][]int{5: {0, 1}}}
	ha, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Errorf("order-only permutation changed the hash: %s vs %s", ha, hb)
	}
	hc, err := FaultSet{DeadRFCUs: []int{3}}.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hc == ha {
		t.Error("different fault sets share a hash")
	}
}

// TestParseStrict: unknown fields and trailing garbage are rejected;
// round trips preserve the value.
func TestParseStrict(t *testing.T) {
	if _, err := Parse([]byte(`{"DeadRFCUss": [1]}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := Parse([]byte(`{"DeadRFCUs": [1]} {}`)); err == nil {
		t.Error("trailing garbage accepted")
	}
	fs := namedFaultSet()
	data, err := json.Marshal(fs)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fs, back) {
		t.Errorf("round trip changed the fault set:\nbefore %+v\nafter  %+v", fs, back)
	}
}

// TestADCAndPDDerating: energy deratings raise the degraded power but
// leave the schedule (latency) untouched.
func TestADCAndPDDerating(t *testing.T) {
	cfg := arch.FB()
	net := testNet(t)
	healthy := arch.MustEvaluate(cfg, net)
	r, err := Evaluate(cfg, FaultSet{Name: "worn", ADCEnergyFactor: 2, PDResponsivityDrop: 0.2}, net)
	if err != nil {
		t.Fatal(err)
	}
	if r.Latency != healthy.Latency {
		t.Errorf("energy derating changed latency: %g vs %g", r.Latency, healthy.Latency)
	}
	if r.Power.ADC <= healthy.Power.ADC {
		t.Errorf("ADC derate 2x: power %g not above healthy %g", r.Power.ADC, healthy.Power.ADC)
	}
	if r.Power.Laser <= healthy.Power.Laser {
		t.Errorf("PD responsivity drop: laser %g not above healthy %g", r.Power.Laser, healthy.Power.Laser)
	}
}

// TestEvaluateDeterministic: the same fault set yields bit-identical
// reports across calls (the property the serving cache relies on).
func TestEvaluateDeterministic(t *testing.T) {
	cfg := arch.FB()
	fs := namedFaultSet()
	nets := nn.Benchmarks()
	a, _, err := EvaluateAllCtx(context.Background(), cfg, &fs, nets)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := EvaluateAllCtx(context.Background(), cfg, &fs, nets)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("repeated degraded evaluation differs")
	}
}
