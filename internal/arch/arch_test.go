package arch

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"refocus/internal/nn"
	"refocus/internal/phys"
)

func relErr(got, want float64) float64 { return math.Abs(got-want) / math.Abs(want) }

func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if relErr(got, want) > tol {
		t.Errorf("%s = %.4g, paper says %.4g (tolerance %.0f%%)", name, got, want, tol*100)
	}
}

// TestFigure9Area reproduces the paper's area accounting: ReFOCUS totals
// 171.1 mm² with 135.7 mm² of photonics; lenses (58.5) and delay lines
// (41.0) are the two largest photonic contributors; SRAM+buffers ≈12.4 mm².
func TestFigure9Area(t *testing.T) {
	a := MustComputeArea(FB())
	within(t, "total area (mm²)", phys.M2ToMM2(a.Total()), 171.1, 0.03)
	within(t, "photonic area (mm²)", phys.M2ToMM2(a.Photonic()), 135.7, 0.03)
	within(t, "delay line area (mm²)", phys.M2ToMM2(a.DelayLine), 41.0, 0.01)
	within(t, "lens area (mm²)", phys.M2ToMM2(a.Lens), 58.5, 0.12)
	within(t, "SRAM+buffers area (mm²)", phys.M2ToMM2(a.SRAM+a.DataBuffer), 12.4, 0.10)
	if a.Lens < a.DelayLine {
		t.Error("lenses should be the largest photonic area contributor")
	}
	// FF and FB share the same area (paper: "both versions ... same area").
	if ff := MustComputeArea(FF()); math.Abs(ff.Total()-a.Total()) > 0.01*a.Total() {
		t.Errorf("FF area %.4g differs from FB %.4g by more than 1%%", ff.Total(), a.Total())
	}
}

// TestBaselineMatchesSection3: the PhotoFourier-NG-style baseline consumes
// ≈15.7 W average over the five CNNs with ≈90.7 mm² of photonics (paper §3).
func TestBaselineMatchesSection3(t *testing.T) {
	cfg := Baseline()
	reports := MustEvaluateAll(cfg, nn.Benchmarks())
	within(t, "baseline mean power (W)", MeanPower(reports), 15.7, 0.15)
	within(t, "baseline photonic area (mm²)", phys.M2ToMM2(MustComputeArea(cfg).Photonic()), 90.7, 0.05)
	// Figure 3(a): DAC and SRAM dominate the baseline.
	b := MeanBreakdown(reports)
	if b.DAC() < b.ADC || b.DAC() < b.CMOS {
		t.Errorf("baseline DAC power %.2f W should dominate (ADC %.2f, CMOS %.2f)", b.DAC(), b.ADC, b.CMOS)
	}
	if share := (b.DAC() + b.Memory()) / b.Total(); share < 0.6 {
		t.Errorf("DAC+SRAM share %.2f; Figure 3(a) shows them dominating", share)
	}
}

// TestSingleJTCConverterDominated: Figure 3(a)'s other bar — without any
// optimization, ADCs+DACs consume most of a single JTC's power.
func TestSingleJTCConverterDominated(t *testing.T) {
	reports := MustEvaluateAll(SingleJTC(), nn.Benchmarks())
	b := MeanBreakdown(reports)
	if share := b.Converters() / b.Total(); share < 0.6 {
		t.Errorf("single-JTC converter share = %.2f, expected dominant (paper: >85%%)", share)
	}
	// And its ADC energy per inference exceeds the temporally-accumulated
	// baseline's (per unit work): compare ADC fraction.
	bl := MeanBreakdown(MustEvaluateAll(Baseline(), nn.Benchmarks()))
	if b.ADC/b.Total() <= bl.ADC/bl.Total() {
		t.Error("temporal accumulation should shrink the ADC share vs the single JTC")
	}
}

// TestFigure8Power reproduces the headline power numbers: ReFOCUS-FF
// ≈14.0 W and ReFOCUS-FB ≈10.8 W averaged over the five CNNs, with the
// paper's DAC split: weight DACs ≈90% of FB DAC power, ≈53% of FF's.
func TestFigure8Power(t *testing.T) {
	ff := MeanBreakdown(MustEvaluateAll(FF(), nn.Benchmarks()))
	fb := MeanBreakdown(MustEvaluateAll(FB(), nn.Benchmarks()))
	within(t, "ReFOCUS-FF mean power (W)", ff.Total(), 14.0, 0.15)
	within(t, "ReFOCUS-FB mean power (W)", fb.Total(), 10.8, 0.15)
	within(t, "FB weight-DAC share of DAC power", fb.WeightDAC/fb.DAC(), 0.90, 0.05)
	within(t, "FF weight-DAC share of DAC power", ff.WeightDAC/ff.DAC(), 0.53, 0.10)
	// FB's laser power is visibly higher than FF's (loss compensation).
	if fb.Laser <= ff.Laser {
		t.Errorf("FB laser %.3f W should exceed FF laser %.3f W", fb.Laser, ff.Laser)
	}
	// DAC still consumes the most power in both (paper §6.1).
	for name, b := range map[string]PowerBreakdown{"FF": ff, "FB": fb} {
		if b.DAC() < b.ADC || b.DAC() < b.Memory() || b.DAC() < b.CMOS {
			t.Errorf("%s: DAC %.2f W should be the largest consumer (ADC %.2f, mem %.2f, CMOS %.2f)",
				name, b.DAC(), b.ADC, b.Memory(), b.CMOS)
		}
	}
}

// TestFigure11Ratios reproduces the headline comparison vs PhotoFourier:
// ≈2× FPS, ≈2.2× FPS/W (FB), ≈1.36× FPS/mm², and strictly better PAP and
// 1/EDP, as geometric means over the five CNNs.
func TestFigure11Ratios(t *testing.T) {
	nets := nn.Benchmarks()
	base := MustEvaluateAll(Baseline(), nets)
	fb := MustEvaluateAll(FB(), nets)
	ff := MustEvaluateAll(FF(), nets)

	fps := GeoMean(fb, MetricFPS) / GeoMean(base, MetricFPS)
	if fps < 1.7 || fps > 2.2 {
		t.Errorf("FB/baseline FPS ratio = %.2f, paper says ≈2×", fps)
	}
	eff := GeoMean(fb, MetricFPSPerWatt) / GeoMean(base, MetricFPSPerWatt)
	if eff < 1.9 || eff > 3.2 {
		t.Errorf("FB/baseline FPS/W ratio = %.2f, paper says ≈2.2×", eff)
	}
	area := GeoMean(fb, MetricFPSPerMM2) / GeoMean(base, MetricFPSPerMM2)
	if relErr(area, 1.36) > 0.12 {
		t.Errorf("FB/baseline FPS/mm² ratio = %.2f, paper says 1.36×", area)
	}
	// FF close behind FB on efficiency ("close to 2×"), identical FPS.
	effFF := GeoMean(ff, MetricFPSPerWatt) / GeoMean(base, MetricFPSPerWatt)
	if effFF >= eff {
		t.Errorf("FF efficiency gain %.2f should trail FB's %.2f", effFF, eff)
	}
	if effFF < 1.5 {
		t.Errorf("FF efficiency gain %.2f, paper says close to 2×", effFF)
	}
	// Combined metrics strictly improve.
	if GeoMean(fb, MetricPAP) <= GeoMean(base, MetricPAP) {
		t.Error("FB PAP should beat the baseline")
	}
	if GeoMean(fb, MetricInvEDP) <= GeoMean(base, MetricInvEDP) {
		t.Error("FB 1/EDP should beat the baseline")
	}
}

// TestTable4RFCUBudget reproduces the §5.4.1 design rule: within a 150 mm²
// photonic budget, the feasible RFCU count falls with delay length as
// ≈{25,24,23,21,18,11} for M={1,2,4,8,16,32} (we allow ±1 — the paper's
// layout tool sees overheads our census approximates).
func TestTable4RFCUBudget(t *testing.T) {
	want := map[int]int{1: 25, 2: 24, 4: 23, 8: 21, 16: 18, 32: 11}
	base := FF()
	budget := 150 * phys.MM2
	for _, m := range []int{1, 2, 4, 8, 16, 32} {
		got, err := MaxRFCUsForBudget(base, m, budget)
		if err != nil {
			t.Fatal(err)
		}
		if d := got - want[m]; d < -1 || d > 1 {
			t.Errorf("M=%d: %d RFCUs fit, paper says %d (±1)", m, got, want[m])
		}
	}
}

// TestDRAMDominatesFB reproduces §7.3: profiled with HBM2 energy, DRAM can
// exceed 50% of ReFOCUS-FB's total power.
func TestDRAMDominatesFB(t *testing.T) {
	b := MeanBreakdown(MustEvaluateAll(FB(), nn.Benchmarks()))
	if share := b.DRAM / b.TotalWithDRAM(); share < 0.5 {
		t.Errorf("FB DRAM share = %.2f, paper says >50%%", share)
	}
}

// TestCensusCounts sanity-checks the component inventory.
func TestCensusCounts(t *testing.T) {
	cs := censusOf(FB())
	if cs.InputDACs != 512 {
		t.Errorf("input DACs = %d, want 512 (256 waveguides × 2λ)", cs.InputDACs)
	}
	if cs.WeightDACs != 25*2*16 {
		t.Errorf("weight DACs = %d, want 800", cs.WeightDACs)
	}
	if cs.Lenses != 32 {
		t.Errorf("lenses = %d, want 32", cs.Lenses)
	}
	if cs.DelayLines != 256 {
		t.Errorf("delay lines = %d, want 256 (shared across wavelengths)", cs.DelayLines)
	}
	if cs.SwitchMRRs != 256 {
		t.Errorf("switch MRRs = %d, want 256 (feedback gates)", cs.SwitchMRRs)
	}
	if ff := censusOf(FF()); ff.SwitchMRRs != 0 {
		t.Error("feedforward buffer needs no switch MRRs")
	}
	if bl := censusOf(Baseline()); bl.DelayLines != 0 {
		t.Error("baseline has no delay lines")
	}
}

// TestLaserFactors: FB pays the Table-5 laser premium (3.87× at R=15),
// FF pays ≈1/(2α)≈1.01×, baseline pays none.
func TestLaserFactors(t *testing.T) {
	if f := Baseline().LaserPowerFactor(); f != 1 {
		t.Errorf("baseline laser factor = %g, want 1", f)
	}
	if f := FF().LaserPowerFactor(); f < 1 || f > 1.05 {
		t.Errorf("FF laser factor = %g, want ≈1.01", f)
	}
	if f := FB().LaserPowerFactor(); relErr(f, 3.87) > 0.02 {
		t.Errorf("FB laser factor = %g, want 3.87 (Table 5, R=15)", f)
	}
}

// TestEvaluateDeterministic: the model is a pure function of its inputs.
func TestEvaluateDeterministic(t *testing.T) {
	net, _ := nn.ByName("ResNet-34")
	a := MustEvaluate(FB(), net)
	b := MustEvaluate(FB(), net)
	if a != b {
		t.Error("Evaluate is not deterministic")
	}
}

// TestEnergyLatencyConsistency: energy = power × latency, FPS = 1/latency,
// PAP = FPS/W · FPS/mm².
func TestEnergyLatencyConsistency(t *testing.T) {
	net, _ := nn.ByName("VGG-16")
	r := MustEvaluate(FF(), net)
	if relErr(r.Energy, r.Power.Total()*r.Latency) > 1e-9 {
		t.Error("energy != power × latency")
	}
	if relErr(r.FPS, 1/r.Latency) > 1e-9 {
		t.Error("FPS != 1/latency")
	}
	if relErr(r.PAP, r.FPSPerWatt*r.FPSPerMM2) > 1e-9 {
		t.Error("PAP != FPS/W × FPS/mm²")
	}
	if r.Latency <= 0 || r.Energy <= 0 {
		t.Error("non-positive latency or energy")
	}
}

// TestValidationErrors: malformed configs are rejected with descriptive,
// package-prefixed errors, and the errors surface through Evaluate.
func TestValidationErrors(t *testing.T) {
	bad := FB()
	bad.Reuses = 0
	if err := bad.Validate(); err == nil {
		t.Error("feedback with zero reuses should fail validation")
	} else if !strings.Contains(err.Error(), "arch: ") {
		t.Errorf("error %q lacks package prefix", err)
	}
	bad2 := FF()
	bad2.ActivationSRAMBytes = 0
	if err := bad2.Validate(); err == nil {
		t.Error("zero SRAM should fail validation")
	}
	bad3 := FB()
	bad3.WeightSharing = &WeightSharingConfig{CompressionRatio: 0.5}
	if err := bad3.Validate(); err == nil {
		t.Error("compression ratio below 1 should fail validation")
	}
	bad4 := FB()
	bad4.Buffer = BufferKind(42)
	if err := bad4.Validate(); err == nil {
		t.Error("unknown buffer kind should fail validation")
	}
	net, _ := nn.ByName("ResNet-18")
	if _, err := Evaluate(bad, net); err == nil {
		t.Error("Evaluate should reject an invalid config")
	}
	if _, err := EvaluateAll(bad, []nn.Network{net}); err == nil {
		t.Error("EvaluateAll should reject an invalid config")
	}
	if _, err := ComputeArea(bad); err == nil {
		t.Error("ComputeArea should reject an invalid config")
	}
	if _, err := TakeCensus(bad); err == nil {
		t.Error("TakeCensus should reject an invalid config")
	}
	if _, err := EvaluateLayers(bad, net); err == nil {
		t.Error("EvaluateLayers should reject an invalid config")
	}
	if _, err := MaxRFCUsForBudget(bad, 16, 1); err == nil {
		t.Error("MaxRFCUsForBudget should reject an invalid base config")
	}
}

func BenchmarkEvaluateFB(b *testing.B) {
	net, _ := nn.ByName("ResNet-50")
	cfg := FB()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MustEvaluate(cfg, net)
	}
}

// TestWeightSharingThroughModel: enabling the §7.3 stack on ReFOCUS-FB
// cuts weight-DAC power by the reorder fraction, weight-SRAM and DRAM
// traffic by the compression ratio, and lifts FPS/W by several percent —
// the paper's 4.7% claim measured through the system model rather than
// computed analytically.
func TestWeightSharingThroughModel(t *testing.T) {
	net, _ := nn.ByName("ResNet-34")
	base := MustEvaluate(FB(), net)
	ws := MustEvaluate(FBWS(), net)

	if r := base.Power.WeightDAC / ws.Power.WeightDAC; relErr(r, 1/0.85) > 1e-9 {
		t.Errorf("weight-DAC power ratio = %g, want %g", r, 1/0.85)
	}
	if ws.Power.WeightSRAM >= base.Power.WeightSRAM/4 {
		t.Errorf("weight SRAM power should shrink ~4.5×: %g vs %g", ws.Power.WeightSRAM, base.Power.WeightSRAM)
	}
	if ws.Power.DRAM >= base.Power.DRAM/3 {
		t.Errorf("DRAM power should collapse with 4.5× weight compression: %g vs %g", ws.Power.DRAM, base.Power.DRAM)
	}
	gain := ws.FPSPerWatt/base.FPSPerWatt - 1
	if gain < 0.03 || gain > 0.15 {
		t.Errorf("on-chip efficiency gain = %.1f%%, paper's §7.3 reports ~4.7%% for FF", gain*100)
	}
	// With DRAM included, the §7.3 "up to 52%" total-energy story.
	baseTotal := base.Power.TotalWithDRAM() * base.Latency
	wsTotal := ws.Power.TotalWithDRAM() * ws.Latency
	saving := 1 - wsTotal/baseTotal
	if saving < 0.35 || saving > 0.60 {
		t.Errorf("DRAM-inclusive energy saving = %.0f%%, paper says up to 52%%", saving*100)
	}
	// Throughput is untouched — sharing is a storage/conversion win.
	if ws.FPS != base.FPS {
		t.Errorf("weight sharing must not change FPS: %g vs %g", ws.FPS, base.FPS)
	}
}

// TestBatchingLiftsEfficiency: batch-8 inference amortizes the weight DACs
// (FB's dominant consumer) and lifts FPS/W substantially at unchanged
// per-image latency — the batching lever §7.3's weight-DAC concern implies.
func TestBatchingLiftsEfficiency(t *testing.T) {
	net, _ := nn.ByName("ResNet-34")
	b1 := MustEvaluate(FB(), net)
	cfg := FB()
	cfg.Batch = 8
	b8 := MustEvaluate(cfg, net)
	if b8.Latency != b1.Latency {
		t.Errorf("per-image latency changed: %g vs %g", b8.Latency, b1.Latency)
	}
	if r := b1.Power.WeightDAC / b8.Power.WeightDAC; relErr(r, 8) > 1e-9 {
		t.Errorf("weight DAC power amortization = %g, want 8", r)
	}
	if gain := b8.FPSPerWatt / b1.FPSPerWatt; gain < 1.3 {
		t.Errorf("batch-8 FPS/W gain = %.2f, expected substantial", gain)
	}
}

// TestValidateRejectsUnplannableBuffers: a filter-major buffer plan over
// more RFCUs than the sizing N_F (512) has no output buffer. Validate
// rejects it with the plan's error, which names N_RFCU, so Evaluate
// returns that error instead of panicking in bufferPlan.
func TestValidateRejectsUnplannableBuffers(t *testing.T) {
	cfg := FB()
	cfg.NRFCU = 1_000_000_000
	err := cfg.Validate()
	if err == nil || !strings.Contains(err.Error(), "N_RFCU=1000000000") {
		t.Fatalf("Validate = %v, want the buffer plan's N_RFCU error", err)
	}
	if _, err := Evaluate(cfg, nn.AlexNet()); err == nil {
		t.Error("Evaluate accepted the unplannable config")
	}
	cfg.NRFCU = 512
	if err := cfg.Validate(); err != nil {
		t.Errorf("N_RFCU = N_F should still plan: %v", err)
	}
}

// TestEvaluateRejectsNonFiniteReports: design points whose laser power
// overflows evaluate to an error naming the first non-finite report
// field, never to a report carrying +Inf.
func TestEvaluateRejectsNonFiniteReports(t *testing.T) {
	long := FB()
	long.M = 1_000_000_000
	reuse := FB()
	reuse.Reuses = 1_000_000_000
	for _, cfg := range []SystemConfig{long, reuse} {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("M=%d Reuses=%d: %v", cfg.M, cfg.Reuses, err)
		}
		_, err := Evaluate(cfg, nn.AlexNet())
		if err == nil || !strings.Contains(err.Error(), "Energy is +Inf") {
			t.Errorf("M=%d Reuses=%d: Evaluate = %v, want an error naming Energy", cfg.M, cfg.Reuses, err)
		}
	}
}

// TestCheckFiniteCoversEveryField: every float64 of Report, nested ones
// included, is checked and named by its path.
func TestCheckFiniteCoversEveryField(t *testing.T) {
	r := MustEvaluate(FB(), nn.AlexNet())
	if err := r.checkFinite(); err != nil {
		t.Fatal(err)
	}
	var check func(v reflect.Value, path string)
	check = func(v reflect.Value, path string) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), path+v.Type().Field(i).Name
			switch f.Kind() {
			case reflect.Struct:
				check(f, name+".")
			case reflect.Float64:
				old := f.Float()
				f.SetFloat(math.Inf(-1))
				if err := r.checkFinite(); err == nil || !strings.HasPrefix(err.Error(), name+" is -Inf") {
					t.Errorf("%s = -Inf: checkFinite = %v", name, err)
				}
				f.SetFloat(old)
			}
		}
	}
	check(reflect.ValueOf(&r).Elem(), "")
}
