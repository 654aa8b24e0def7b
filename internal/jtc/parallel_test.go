package jtc

import (
	"math/rand"
	"sync"
	"testing"

	"refocus/internal/tensor"
)

func testConvOperands(seed int64, c, h, w, f, kh, kw int) (*tensor.Tensor, *tensor.Tensor) {
	rng := rand.New(rand.NewSource(seed))
	in := tensor.New(c, h, w)
	for i := range in.Data {
		in.Data[i] = rng.Float64()
	}
	wt := tensor.Random(rng, f, c, kh, kw)
	return in, wt
}

// TestConv2DParallelBitIdentical verifies the tentpole determinism
// guarantee: Conv2D output is bit-for-bit identical across Parallelism
// settings (serial, 2, 4, and GOMAXPROCS), for both quantized and exact
// datapaths and for strided layers.
func TestConv2DParallelBitIdentical(t *testing.T) {
	for _, quant := range []bool{false, true} {
		for _, stride := range []int{1, 2} {
			in, wt := testConvOperands(42, 5, 14, 14, 7, 3, 3)

			ref := func(parallelism int) *tensor.Tensor {
				cfg := DefaultEngineConfig()
				cfg.InputWaveguides = 64
				cfg.Parallelism = parallelism
				if !quant {
					cfg.Quant = QuantConfig{}
				}
				return NewEngine(cfg).Conv2D(in, wt, stride)
			}

			serial := ref(1)
			for _, p := range []int{2, 4, 0} {
				got := ref(p)
				if len(got.Data) != len(serial.Data) {
					t.Fatalf("quant=%v stride=%d parallelism=%d: shape mismatch", quant, stride, p)
				}
				for i := range got.Data {
					if got.Data[i] != serial.Data[i] {
						t.Fatalf("quant=%v stride=%d parallelism=%d: output[%d] = %v, serial %v — not bit-identical",
							quant, stride, p, i, got.Data[i], serial.Data[i])
					}
				}
			}
		}
	}
}

// TestConv2DParallelStats verifies per-worker stats merge to exactly the
// serial tally regardless of the worker count.
func TestConv2DParallelStats(t *testing.T) {
	in, wt := testConvOperands(7, 4, 10, 10, 6, 3, 3)
	var want PassStats
	for _, p := range []int{1, 2, 3, 0} {
		cfg := DefaultEngineConfig()
		cfg.InputWaveguides = 64
		cfg.Parallelism = p
		e := NewEngine(cfg)
		e.Conv2D(in, wt, 1)
		got := e.Stats()
		if p == 1 {
			want = got
			if want.Passes == 0 {
				t.Fatal("serial run recorded no passes")
			}
			continue
		}
		if got != want {
			t.Errorf("parallelism=%d: stats %+v, want %+v", p, got, want)
		}
	}
}

// TestConv2DConcurrentEngine runs many Conv2D calls against one shared
// engine from concurrent goroutines — with internal fan-out enabled — and
// checks both the outputs and the final merged stats. Run under -race this
// exercises the stats mutex and the per-worker merge.
func TestConv2DConcurrentEngine(t *testing.T) {
	in, wt := testConvOperands(99, 3, 12, 12, 4, 3, 3)

	cfg := DefaultEngineConfig()
	cfg.InputWaveguides = 64
	cfg.Parallelism = 2
	serialEngine := NewEngine(cfg)
	want := serialEngine.Conv2D(in, wt, 1)
	wantStats := serialEngine.Stats()

	shared := NewEngine(cfg)
	const callers = 8
	var wg sync.WaitGroup
	outs := make([]*tensor.Tensor, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			outs[g] = shared.Conv2D(in, wt, 1)
		}(g)
	}
	wg.Wait()

	for g, got := range outs {
		for i := range got.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("caller %d: output[%d] differs under concurrency", g, i)
			}
		}
	}
	got := shared.Stats()
	if got.Passes != callers*wantStats.Passes ||
		got.InputConversions != callers*wantStats.InputConversions ||
		got.WeightConversions != callers*wantStats.WeightConversions ||
		got.OutputReads != callers*wantStats.OutputReads {
		t.Errorf("concurrent stats %+v, want %d× %+v", got, callers, wantStats)
	}
}

// TestDirectSharedFanOut drives the default path's filter fan-out as
// hard as the race detector can watch it: one engine, maximum internal
// parallelism, many concurrent Conv2D calls — every worker reading the
// same read-only input planes and group tallies while correlating into
// its own row scratch and wells. Outputs must stay bit-identical to a
// one-worker run. Run under -race this is the ownership proof for
// DESIGN.md §11.
func TestDirectSharedFanOut(t *testing.T) {
	in, wt := testConvOperands(5, 6, 20, 20, 12, 3, 3)

	cfg := DefaultEngineConfig()
	cfg.InputWaveguides = 128
	cfg.Parallelism = 1
	want := NewEngine(cfg).Conv2D(in, wt, 1)

	cfg.Parallelism = 0 // GOMAXPROCS workers per call
	shared := NewEngine(cfg)
	const callers = 6
	var wg sync.WaitGroup
	outs := make([]*tensor.Tensor, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			outs[g] = shared.Conv2D(in, wt, 1)
		}(g)
	}
	wg.Wait()
	for g, got := range outs {
		for i := range got.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("caller %d: output[%d] differs under shared fan-out", g, i)
			}
		}
	}
}

// TestConv2DParallelPhysicalCorrelator checks bit-identity holds when the
// correlator is the full field-propagation path, which is the case where
// concurrent workers share the most library state (plan cache, pools).
func TestConv2DParallelPhysicalCorrelator(t *testing.T) {
	in, wt := testConvOperands(3, 2, 8, 8, 4, 3, 3)
	phys := NewPhysicalJTC(1024)

	ref := func(parallelism int) *tensor.Tensor {
		cfg := DefaultEngineConfig()
		cfg.InputWaveguides = 64
		cfg.Quant = QuantConfig{}
		cfg.Correlator = phys.Correlate
		cfg.Parallelism = parallelism
		return NewEngine(cfg).Conv2D(in, wt, 1)
	}
	serial := ref(1)
	parallel := ref(4)
	for i := range serial.Data {
		if serial.Data[i] != parallel.Data[i] {
			t.Fatalf("physical correlator: output[%d] not bit-identical across parallelism", i)
		}
	}
}
