package arch

import (
	"math"
	"testing"

	"refocus/internal/nn"
)

// TestEvaluateLayersSharesSum: cycle and energy shares (with repeats) sum
// to one, and per-layer latencies sum to the whole-network latency.
func TestEvaluateLayersSharesSum(t *testing.T) {
	net, _ := nn.ByName("ResNet-34")
	cfg := FB()
	profiles := MustEvaluateLayers(cfg, net)
	if len(profiles) != len(net.Layers) {
		t.Fatalf("%d profiles for %d layers", len(profiles), len(net.Layers))
	}
	var cycles, energy, latency float64
	for _, p := range profiles {
		cycles += p.ShareOfCycles
		energy += p.ShareOfEnergy
		latency += p.Latency * float64(p.Repeat)
	}
	if math.Abs(cycles-1) > 1e-9 || math.Abs(energy-1) > 1e-9 {
		t.Errorf("shares sum to %g / %g, want 1 / 1", cycles, energy)
	}
	whole := MustEvaluate(cfg, net)
	if math.Abs(latency-whole.Latency) > 1e-12 {
		t.Errorf("per-layer latency sum %g != network latency %g", latency, whole.Latency)
	}
}

// TestTopConsumersOrdering: the profiler ranks correctly and VGG-16's huge
// early layers dominate its cycle budget.
func TestTopConsumersOrdering(t *testing.T) {
	net, _ := nn.ByName("VGG-16")
	profiles := MustEvaluateLayers(FB(), net)
	top := TopConsumers(profiles, "cycles", 3)
	if len(top) != 3 {
		t.Fatalf("top = %d entries", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].ShareOfCycles > top[i-1].ShareOfCycles {
			t.Error("TopConsumers not descending")
		}
	}
	// conv1_2 (64ch at 224²) is VGG's classic cycle hog on row-tiled
	// hardware (a single padded row barely fits T=256).
	if c, _ := top[0].Layer.Shape().(nn.ConvLayer); c.InH != 224 && c.InH != 112 {
		t.Errorf("expected an early big-plane layer on top, got %s (%d)", top[0].Layer.Name(), c.InH)
	}
	byEnergy := TopConsumers(profiles, "energy", len(profiles))
	if len(byEnergy) != len(profiles) {
		t.Error("energy ranking truncated")
	}
}

func TestTopConsumersValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown quantity")
		}
	}()
	TopConsumers(nil, "joules", 1)
}

// TestPointwiseLayersAreThroughputBound: a 1×1 kernel performs one MAC per
// waveguide-cycle where a 3×3 performs nine, so pointwise layers burn far
// more cycles per MAC — the reason ResNet-50 (half its MACs are 1×1) is
// ReFOCUS's weakest benchmark in Figures 11-13.
func TestPointwiseLayersAreThroughputBound(t *testing.T) {
	net, _ := nn.ByName("ResNet-50")
	profiles := MustEvaluateLayers(FB(), net)
	var ptCyc, convCyc float64
	var ptN, convN int
	for _, p := range profiles {
		ratio := p.Events.Cycles / p.Layer.MACs()
		c, _ := p.Layer.Shape().(nn.ConvLayer)
		if c.KH == 1 {
			ptCyc += ratio
			ptN++
		} else if c.KH == 3 {
			convCyc += ratio
			convN++
		}
	}
	ptCyc /= float64(ptN)
	convCyc /= float64(convN)
	if ptCyc < 4*convCyc {
		t.Errorf("1×1 layers should cost far more cycles per MAC: %g vs %g", ptCyc, convCyc)
	}
}
