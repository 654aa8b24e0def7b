package optics

import (
	"math"
	"math/rand"
	"testing"
)

func TestPhotodetectorLinearVsSquareLaw(t *testing.T) {
	f := Field{complex(2, 0), complex(-3, 0), complex(0, 1)}
	lin := NewPhotodetector(DetectionLinear).Detect(f)
	sq := NewPhotodetector(DetectionSquareLaw).Detect(f)
	wantLin := []float64{2, -3, 0}
	wantSq := []float64{4, 9, 1}
	for i := range f {
		if math.Abs(lin[i]-wantLin[i]) > 1e-12 {
			t.Errorf("linear[%d] = %g, want %g", i, lin[i], wantLin[i])
		}
		if math.Abs(sq[i]-wantSq[i]) > 1e-12 {
			t.Errorf("square[%d] = %g, want %g", i, sq[i], wantSq[i])
		}
	}
}

// TestPhotodetectorTemporalAccumulation: integrating M cycles then reading
// out yields the sum of the per-cycle signals with a single conversion —
// the ADC-power optimization of paper §4.1.4.
func TestPhotodetectorTemporalAccumulation(t *testing.T) {
	p := NewPhotodetector(DetectionLinear)
	var want float64
	for c := 1; c <= 16; c++ {
		p.Integrate(Field{complex(float64(c), 0)})
		want += float64(c)
	}
	if p.AccumulatedCycles() != 16 {
		t.Fatalf("accumulated %d cycles, want 16", p.AccumulatedCycles())
	}
	out := p.Readout()
	if len(out) != 1 || math.Abs(out[0]-want) > 1e-12 {
		t.Errorf("readout = %v, want [%g]", out, want)
	}
	if p.AccumulatedCycles() != 0 {
		t.Error("readout did not reset the well")
	}
	if got := p.Readout(); len(got) != 0 {
		t.Error("second readout should be empty")
	}
}

func TestPhotodetectorSaturation(t *testing.T) {
	p := NewPhotodetector(DetectionLinear)
	p.Saturation = 10
	out := p.Detect(Field{complex(100, 0), complex(-50, 0), complex(3, 0)})
	want := []float64{10, -10, 3}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("saturated[%d] = %g, want %g", i, out[i], want[i])
		}
	}
}

func TestPhotodetectorResponsivity(t *testing.T) {
	p := NewPhotodetector(DetectionSquareLaw)
	p.Responsivity = 0.5
	out := p.Detect(Field{complex(2, 0)})
	if math.Abs(out[0]-2) > 1e-12 {
		t.Errorf("responsivity 0.5: got %g, want 2", out[0])
	}
}

func TestADCQuantize(t *testing.T) {
	a := ADC{Bits: 8, FullScale: 255}
	in := []float64{0, 1, 1.4, 254.6, 255, 300, -5}
	out := a.Quantize(in)
	want := []float64{0, 1, 1, 255, 255, 255, 0}
	for i := range want {
		if math.Abs(out[i]-want[i]) > 1e-9 {
			t.Errorf("quantize[%d] = %g, want %g", i, out[i], want[i])
		}
	}
	if math.Abs(a.StepSize()-1) > 1e-12 {
		t.Errorf("step size = %g, want 1", a.StepSize())
	}
}

// TestADCQuantizationErrorBounded: reconstruction error never exceeds half
// an LSB inside the full-scale range.
func TestADCQuantizationErrorBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := ADC{Bits: 8, FullScale: 1}
	half := a.StepSize() / 2
	for i := 0; i < 1000; i++ {
		v := rng.Float64()
		q := a.Quantize([]float64{v})[0]
		if math.Abs(q-v) > half+1e-12 {
			t.Fatalf("quantization error %g exceeds half LSB %g", math.Abs(q-v), half)
		}
	}
}

func TestADCValidation(t *testing.T) {
	for _, a := range []ADC{{Bits: 0, FullScale: 1}, {Bits: 8, FullScale: 0}, {Bits: 40, FullScale: 1}} {
		func() {
			defer func() { recover() }()
			a.Quantize([]float64{1})
			t.Errorf("ADC %+v did not panic", a)
		}()
	}
}

// TestNoiseModelStatistics checks the injected noise has roughly the
// configured scale and is zero-mean.
func TestNoiseModelStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	nm := NoiseModel{ReadSigma: 0.1}
	n := 20000
	signal := make([]float64, n)
	for i := range signal {
		signal[i] = 5
	}
	noisy := append([]float64(nil), signal...)
	nm.Apply(rng, noisy)
	var mean, varsum float64
	for _, v := range noisy {
		mean += v
	}
	mean /= float64(n)
	for _, v := range noisy {
		varsum += (v - mean) * (v - mean)
	}
	sd := math.Sqrt(varsum / float64(n))
	if math.Abs(mean-5) > 0.01 {
		t.Errorf("noise not zero-mean: mean %g", mean)
	}
	if math.Abs(sd-0.1) > 0.01 {
		t.Errorf("read noise sd %g, want ~0.1", sd)
	}
}

func TestNoiseModelShotScalesWithSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nm := NoiseModel{ShotCoeff: 0.2}
	measure := func(level float64) float64 {
		n := 20000
		sig := make([]float64, n)
		for i := range sig {
			sig[i] = level
		}
		nm.Apply(rng, sig)
		var varsum float64
		for _, v := range sig {
			varsum += (v - level) * (v - level)
		}
		return math.Sqrt(varsum / float64(n))
	}
	sd1, sd4 := measure(1), measure(4)
	// Shot noise sigma ∝ sqrt(signal): ratio should be ~2.
	if r := sd4 / sd1; math.Abs(r-2) > 0.15 {
		t.Errorf("shot noise scaling ratio %g, want ~2", r)
	}
}

func TestNoiseModelZeroIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sig := []float64{1, -2, 3}
	out := append([]float64(nil), sig...)
	NoiseModel{}.Apply(rng, out)
	for i := range sig {
		if out[i] != sig[i] {
			t.Error("zero noise model altered the signal")
		}
	}
}

// TestNoiseModelApplyInPlace: Apply overwrites the signal, drawing RIN,
// shot and read noise per sample in that order, with the shot noise
// scaled by the noiseless sample.
func TestNoiseModelApplyInPlace(t *testing.T) {
	nm := NoiseModel{ReadSigma: 0.05, ShotCoeff: 0.2, RINSigma: 0.1}
	sig := []float64{4, -9, 0.25}
	want := make([]float64, len(sig))
	draws := rand.New(rand.NewSource(5))
	for i, v := range sig {
		x := v * (1 + nm.RINSigma*draws.NormFloat64())
		x += nm.ShotCoeff * math.Sqrt(math.Abs(v)) * draws.NormFloat64()
		want[i] = x + nm.ReadSigma*draws.NormFloat64()
	}
	nm.Apply(rand.New(rand.NewSource(5)), sig)
	for i := range sig {
		if sig[i] != want[i] {
			t.Errorf("sample %d: %g, want %g", i, sig[i], want[i])
		}
	}
}

func TestWDMDetectSum(t *testing.T) {
	a := FieldFromAmplitudes([]float64{1, 2})
	b := FieldFromAmplitudes([]float64{10, 20})
	w := NewWDM(a, b)
	got := w.DetectSum(NewPhotodetector(DetectionLinear))
	want := []float64{11, 22}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("WDM sum[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

// TestWDMChannelsDoNotInterfere: unlike coherent addition, out-of-phase WDM
// channels cannot cancel — intensities add at the detector.
func TestWDMChannelsDoNotInterfere(t *testing.T) {
	a := Field{complex(1, 0)}
	b := Field{complex(-1, 0)}
	w := NewWDM(a, b)
	sq := w.DetectSum(NewPhotodetector(DetectionSquareLaw))
	if math.Abs(sq[0]-2) > 1e-12 {
		t.Errorf("incoherent sum = %g, want 2 (no interference)", sq[0])
	}
	if p := w.TotalPower(); math.Abs(p-2) > 1e-12 {
		t.Errorf("total power %g, want 2", p)
	}
}

func TestWDMApplyBroadcasts(t *testing.T) {
	lens := Lens{Aperture: 8}
	rng := rand.New(rand.NewSource(5))
	a, b := randField(rng, 8), randField(rng, 8)
	w := NewWDM(a, b).Apply(lens.Transform)
	wantA, wantB := lens.Transform(a), lens.Transform(b)
	for i := 0; i < 8; i++ {
		if w.Channels[0][i] != wantA[i] || w.Channels[1][i] != wantB[i] {
			t.Fatal("Apply did not broadcast the lens to each wavelength")
		}
	}
}

func TestWDMValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched channel widths")
		}
	}()
	NewWDM(NewField(4), NewField(5))
}
