// Conformance for the default datapath (DESIGN.md §11): the direct
// engine must be bit-identical to the serial per-pass reference under
// quantization, within 1e-12 of the layer's output scale in exact mode,
// and must report exactly the serial pass statistics. Test and benchmark
// names call the default path "spectral", as perfbench's
// jtc.<entry>.spectral_ms metrics do; the label predates the direct
// datapath.
package jtc

import (
	"math"
	"math/rand"
	"testing"

	"refocus/internal/tensor"
)

// directCase is one layer shape exercised against the serial reference.
type directCase struct {
	name                       string
	c, h, w, f, kh, kw, tWg, M int
	quant                      bool
	stride                     int
}

// directCases covers the three tiling strategies plus the shape classes
// of perfbench's conv-engine workload (ResNet-50 entries at 1/16 width
// or fewer channels, default RFCU: T=256, 25 weight waveguides, M=16).
var directCases = []directCase{
	{"small-3x3-quant", 3, 16, 16, 4, 3, 3, 128, 4, true, 1},
	{"small-3x3-exact", 3, 16, 16, 4, 3, 3, 128, 4, false, 1},
	{"resnet-body-3x3", 8, 32, 32, 16, 3, 3, 128, 16, true, 1},
	{"5x5-full-waveguides", 2, 20, 20, 3, 5, 5, 256, 2, true, 1},
	{"7x7-partial-tiling-quant", 3, 34, 34, 4, 7, 7, 256, 4, true, 1},
	{"7x7-partial-tiling-exact", 3, 34, 34, 4, 7, 7, 256, 4, false, 1},
	{"11x11-row-partitioning", 1, 28, 28, 2, 11, 11, 64, 1, true, 1},
	{"odd-rectangular", 4, 13, 17, 5, 3, 3, 96, 3, true, 1},
	// layer1.0.conv1: 1×1 on 56×56, one partial accumulation window.
	{"1x1-56x56-quant", 4, 56, 56, 4, 1, 1, 256, 16, true, 1},
	{"1x1-56x56-exact", 4, 56, 56, 4, 1, 1, 256, 16, false, 1},
	// layer4.x.conv1: 1×1 on 7×7, two full windows and a partial one.
	{"1x1-7x7", 40, 7, 7, 4, 1, 1, 256, 16, true, 1},
	// layer2.0.down: the stride-2 1×1 downsample on 56×56.
	{"1x1-stride2-layer2.0.down", 16, 56, 56, 8, 1, 1, 256, 16, true, 2},
	// layer4.x.conv2: 3×3 on the 9×9 padded 7×7 plane.
	{"3x3-9x9-layer4.x.conv2", 32, 9, 9, 4, 3, 3, 256, 16, true, 1},
	// conv1: the 7×7 stride-2 stem on the 230×230 padded image, split
	// into 3+3+1 kernel-row groups.
	{"7x7-stem-230x230-quant", 3, 230, 230, 2, 7, 7, 256, 16, true, 2},
	{"7x7-stem-230x230-exact", 3, 230, 230, 2, 7, 7, 256, 16, false, 2},
}

// runDirectPair runs one layer on both datapaths and returns
// (default output, serial output, default stats, serial stats).
func runDirectPair(tc directCase) (*tensor.Tensor, *tensor.Tensor, PassStats, PassStats) {
	rng := rand.New(rand.NewSource(7))
	in := tensor.New(tc.c, tc.h, tc.w)
	for i := range in.Data {
		in.Data[i] = rng.Float64() * 3
	}
	wt := tensor.Random(rng, tc.f, tc.c, tc.kh, tc.kw)
	// Zero the first kernel plane so the all-dark-DAC skip paths run.
	for i := 0; i < tc.kh*tc.kw; i++ {
		wt.Data[i] = 0
	}
	cfg := EngineConfig{
		InputWaveguides: tc.tWg, WeightWaveguides: 25,
		AccumulationWindow: tc.M,
		Quant:              QuantConfig{Enabled: tc.quant, InputBits: 8, WeightBits: 8, ADCBits: 8},
	}
	serCfg := cfg
	serCfg.DisableSpectrumReuse = true
	eDirect := NewEngine(cfg)
	eSer := NewEngine(serCfg)
	return eDirect.Conv2D(in, wt, tc.stride), eSer.Conv2D(in, wt, tc.stride), eDirect.Stats(), eSer.Stats()
}

// TestSpectralMatchesSerial is the conformance gate for the default
// path: quantized layers must match the serial golden reference bit for
// bit (integer operand levels make every correlation sum an exact
// integer on both paths); exact layers must agree to 1e-12 relative to
// the largest output magnitude.
func TestSpectralMatchesSerial(t *testing.T) {
	for _, tc := range directCases {
		t.Run(tc.name, func(t *testing.T) {
			got, want, gotStats, wantStats := runDirectPair(tc)
			var scale float64
			for _, v := range want.Data {
				if a := math.Abs(v); a > scale {
					scale = a
				}
			}
			for i := range got.Data {
				d := math.Abs(got.Data[i] - want.Data[i])
				if tc.quant {
					if d != 0 {
						t.Fatalf("output[%d]: default %v, serial %v — not bit-identical", i, got.Data[i], want.Data[i])
					}
				} else if d > 1e-12*scale {
					t.Fatalf("output[%d]: |Δ|=%g exceeds 1e-12 of output scale %g", i, d, scale)
				}
			}
			if gotStats != wantStats {
				t.Fatalf("stats diverged:\ndefault: %+v\nserial:  %+v", gotStats, wantStats)
			}
		})
	}
}

// TestSpectralStrided checks the default path survives the stride
// subsampling wrapper unchanged.
func TestSpectralStrided(t *testing.T) {
	in, wt := testConvOperands(21, 4, 15, 15, 6, 3, 3)
	cfg := DefaultEngineConfig()
	cfg.InputWaveguides = 96
	ser := cfg
	ser.DisableSpectrumReuse = true
	got := NewEngine(cfg).Conv2D(in, wt, 2)
	want := NewEngine(ser).Conv2D(in, wt, 2)
	for i := range got.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("strided output[%d]: default %v, serial %v", i, got.Data[i], want.Data[i])
		}
	}
}

// benchmarkConvFanOut runs a single input channel fanned out to 32
// filters, on the default path or forced down the per-pass serial path.
func benchmarkConvFanOut(b *testing.B, serial bool) {
	in, wt := testConvOperands(2, 1, 32, 32, 32, 3, 3)
	cfg := DefaultEngineConfig()
	cfg.InputWaveguides = 128
	cfg.Parallelism = 1
	cfg.DisableSpectrumReuse = serial
	e := NewEngine(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Conv2D(in, wt, 1)
	}
}

// BenchmarkConvPlaneDirect is the default path on the 1→32 filter
// fan-out; compare against BenchmarkConvPlaneSerialReference.
func BenchmarkConvPlaneDirect(b *testing.B) { benchmarkConvFanOut(b, false) }

// BenchmarkConvPlaneSerialReference is the same layer forced down the
// per-pass serial path.
func BenchmarkConvPlaneSerialReference(b *testing.B) { benchmarkConvFanOut(b, true) }

// benchmarkResNetLayer runs one ResNet-50-shaped layer on the paper's
// T=256 RFCU with serial workers — the end-to-end shapes the §6
// evaluation cares about.
func benchmarkResNetLayer(b *testing.B, c, hw, f, k int) {
	in, wt := testConvOperands(3, c, hw, hw, f, k, k)
	cfg := DefaultEngineConfig()
	cfg.Parallelism = 1
	e := NewEngine(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Conv2D(in, wt, 1)
	}
}

// BenchmarkConv2DResNetLayer is a conv3_x-shaped 3×3 layer (28×28,
// 32→32 channels).
func BenchmarkConv2DResNetLayer(b *testing.B) { benchmarkResNetLayer(b, 32, 28, 32, 3) }

// BenchmarkConv2DResNetPointwise is a conv3_x-shaped 1×1 layer (28×28,
// 128→32 channels), the kernel class that carries about half of
// ResNet-50's MACs.
func BenchmarkConv2DResNetPointwise(b *testing.B) { benchmarkResNetLayer(b, 128, 28, 32, 1) }
