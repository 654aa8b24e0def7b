package dataflow

import (
	"fmt"

	"refocus/internal/nn"
)

// Lowering of the non-conv layer kinds onto the JTC execution model.
//
// FC/matmul layers run as degenerate 1×1 convolutions: the contraction
// dimension becomes input channels (WDM-parallel over NLambda, serialized
// in groups), output features become filters (NRFCU-parallel with the ×2
// pseudo-negative rounds), and the token axis becomes the spatial extent
// tiled over the T input waveguides — exactly how Lightening-Transformer
// maps q/k/v/projection/FFN matmuls onto its photonic tensor cores.
//
// Attention's score (Q·Kᵀ) and context (scores·V) matmuls differ from the
// projections in one respect: their "weights" are activations computed
// the same inference, so they cannot be preloaded, batch-amortized, or
// streamed from the weight SRAM/DRAM. The dynamic-operand path re-charges
// those costs honestly.
//
// Fourier token-mixing sublayers (§7.4) are not matmuls at all: each
// hidden channel's token column is one pass through a lens-equipped
// waveguide bank — the lens's native transform, free of weight traffic.

// EventsOf produces event counts for one instance of any layer kind,
// dispatching on the layer's shape to the conv model or the lowerings
// above. It is the layer-kind-generic twin of LayerEvents.
func EventsOf(l nn.Layer, cfg Config) (Events, error) {
	if err := l.Validate(); err != nil {
		return Events{}, err
	}
	switch s := l.Shape().(type) {
	case nn.ConvLayer:
		return LayerEvents(s, cfg)
	case nn.FCLayer:
		return fcEvents(s, cfg, false)
	case nn.MixingLayer:
		return MixingEvents(s, cfg)
	case nn.AttentionLayer:
		return attentionEvents(s, cfg)
	case nn.FFNLayer:
		return ffnEvents(s, cfg)
	}
	return Events{}, fmt.Errorf("dataflow: no lowering for layer kind %q", l.Kind())
}

// fcEvents runs one matmul instance through the conv model via its
// degenerate 1×1-conv expression. dynamic marks the weight operand as an
// activation produced this inference (attention scores/context): weight
// conversions lose batch amortization, operand reads move from the weight
// SRAM to the activation SRAM, and no weight DRAM traffic is charged.
func fcEvents(l nn.FCLayer, cfg Config, dynamic bool) (Events, error) {
	conv := l.AsConv()
	e, err := LayerEvents(conv, cfg)
	if err != nil {
		return Events{}, err
	}
	if !dynamic {
		return e, nil
	}
	b := cfg.batch()
	// Undo the batch amortization the conv model applied: a dynamic
	// operand is distinct per image, so every image writes its own DACs.
	fresh := e.WeightDACWrites * (b - 1)
	e.WeightDACWrites *= b
	e.MRRActiveCycles += fresh
	// Operand reads come from the activation SRAM, not the weight path.
	e.ActSRAMReads += e.WeightDACWrites
	e.WeightSRAMReads = 0
	e.DRAMReads -= float64(conv.WeightBytes()) / b
	return e, nil
}

// MixingEvents estimates the JTC activity of one Fourier token-mixing
// sublayer on the ReFOCUS execution model: each hidden channel's token
// column is one pass through a lens-equipped waveguide bank (tiled when
// SeqLen exceeds T), NRFCU·NLambda columns at a time, with the
// hidden-dimension transform charged to the CMOS side. The mixing has no
// weights — the lens is passive — and outputs are read every pass (no
// channel accumulation to exploit).
func MixingEvents(l nn.MixingLayer, cfg Config) (Events, error) {
	if err := cfg.Validate(); err != nil {
		return Events{}, err
	}
	if err := l.Validate(); err != nil {
		return Events{}, err
	}
	tiles := ceilDiv(l.SeqLen, cfg.T)
	passes := float64(tiles) * float64(ceilDiv(l.Hidden, cfg.NRFCU*cfg.NLambda))
	var e Events
	e.Cycles = passes
	e.InputDACWrites = float64(l.SeqLen * l.Hidden)
	e.ADCReads = float64(l.SeqLen * l.Hidden)
	e.ActSRAMReads = e.InputDACWrites
	e.ActSRAMWrites = e.ADCReads
	e.LaserWaveguideCycles = e.Cycles * float64(cfg.T*cfg.NLambda)
	e.MRRActiveCycles = e.InputDACWrites
	if cfg.InputsFromDRAM {
		e.DRAMReads += float64(l.InputBytes())
	}
	return e, nil
}

// attentionEvents decomposes one multi-head self-attention instance into
// its six matmuls: the four static Hidden×Hidden projections (q, k, v,
// output) plus the per-head dynamic score and context matmuls. The
// network-input DRAM charge, when requested, applies once to the block's
// input rather than to every sub-matmul.
func attentionEvents(l nn.AttentionLayer, cfg Config) (Events, error) {
	sub := cfg
	sub.InputsFromDRAM = false
	var total Events
	add := func(m nn.FCLayer, dynamic bool, count int) error {
		e, err := fcEvents(m, sub, dynamic)
		if err != nil {
			return fmt.Errorf("dataflow: attention layer %s: %s: %w", l.Name, m.Name, err)
		}
		for i := 0; i < count; i++ {
			total.Add(e)
		}
		return nil
	}
	proj := nn.FCLayer{Name: "proj", In: l.Hidden, Out: l.Hidden, Tokens: l.SeqLen, Repeat: 1}
	if err := add(proj, false, 4); err != nil {
		return Events{}, err
	}
	scores := nn.FCLayer{Name: "scores", In: l.HeadDim(), Out: l.SeqLen, Tokens: l.SeqLen, Repeat: 1}
	if err := add(scores, true, l.Heads); err != nil {
		return Events{}, err
	}
	context := nn.FCLayer{Name: "context", In: l.SeqLen, Out: l.HeadDim(), Tokens: l.SeqLen, Repeat: 1}
	if err := add(context, true, l.Heads); err != nil {
		return Events{}, err
	}
	if cfg.InputsFromDRAM {
		total.DRAMReads += float64(l.InputBytes())
	}
	return total, nil
}

// ffnEvents decomposes one position-wise feed-forward instance into its
// two static matmuls (Hidden → FFHidden → Hidden over SeqLen tokens).
func ffnEvents(l nn.FFNLayer, cfg Config) (Events, error) {
	sub := cfg
	sub.InputsFromDRAM = false
	var total Events
	for _, m := range []nn.FCLayer{
		{Name: "expand", In: l.Hidden, Out: l.FFHidden, Tokens: l.SeqLen, Repeat: 1},
		{Name: "contract", In: l.FFHidden, Out: l.Hidden, Tokens: l.SeqLen, Repeat: 1},
	} {
		e, err := fcEvents(m, sub, false)
		if err != nil {
			return Events{}, fmt.Errorf("dataflow: ffn layer %s: %s: %w", l.Name, m.Name, err)
		}
		total.Add(e)
	}
	if cfg.InputsFromDRAM {
		total.DRAMReads += float64(l.InputBytes())
	}
	return total, nil
}
