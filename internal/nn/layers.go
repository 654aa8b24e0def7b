// Package nn describes the workloads ReFOCUS is evaluated on as data: a
// typed layer taxonomy (conv, fc/matmul, fourier-mixing, attention, ffn)
// behind a tagged-union JSON encoding, a registry of built-in networks
// (the paper's five CNN benchmarks plus BERT-base, ViT-B/16 and
// FNet-base) embedded as canonical JSON specs, aggregate statistics the
// performance model consumes, and a small runnable CNN for functional
// end-to-end validation on the JTC engine.
//
// The CNN tables list only convolution layers, matching the paper's
// evaluation (§6 benchmarks convs, measuring them at >99% of
// computation); the transformer specs use the fc/mixing/attention/ffn
// kinds the dataflow package lowers onto the same JTC cycle model.
package nn

import "fmt"

// ConvLayer is one convolution layer's shape. All five networks are
// ImageNet models with 224×224 inputs (227 for the original AlexNet is
// normalized to the torchvision 224 variant).
type ConvLayer struct {
	Name   string
	InC    int // input channels
	InH    int // input height (before padding)
	InW    int // input width
	OutC   int // filters
	KH, KW int
	Stride int
	Pad    int
	// Repeat counts identical layers (ResNet block bodies) so shape
	// tables stay compact; all statistics multiply by it.
	Repeat int
}

// OutH returns the output height.
func (l ConvLayer) OutH() int { return (l.InH+2*l.Pad-l.KH)/l.Stride + 1 }

// OutW returns the output width.
func (l ConvLayer) OutW() int { return (l.InW+2*l.Pad-l.KW)/l.Stride + 1 }

// MACs returns multiply-accumulates for one instance of the layer.
func (l ConvLayer) MACs() float64 {
	return float64(l.OutC) * float64(l.OutH()) * float64(l.OutW()) *
		float64(l.InC) * float64(l.KH) * float64(l.KW)
}

// WeightBytes returns the 8-bit weight footprint of one instance.
func (l ConvLayer) WeightBytes() int { return l.OutC * l.InC * l.KH * l.KW }

// InputBytes returns the 8-bit input activation footprint.
func (l ConvLayer) InputBytes() int { return l.InC * l.InH * l.InW }

// OutputBytes returns the 8-bit output activation footprint.
func (l ConvLayer) OutputBytes() int { return l.OutC * l.OutH() * l.OutW() }

// Validate reports an inconsistent shape.
func (l ConvLayer) Validate() error {
	if l.InC <= 0 || l.OutC <= 0 || l.KH <= 0 || l.KW <= 0 || l.Stride <= 0 || l.Pad < 0 || l.Repeat <= 0 {
		return fmt.Errorf("nn: invalid layer %+v", l)
	}
	if l.InH+2*l.Pad < l.KH || l.InW+2*l.Pad < l.KW {
		return fmt.Errorf("nn: kernel exceeds padded input in layer %s", l.Name)
	}
	return nil
}

// The shape methods of ConvLayer (see Layer).
func (l ConvLayer) kind() LayerKind                   { return KindConv }
func (l ConvLayer) name() string                      { return l.Name }
func (l ConvLayer) repeat() int                       { return l.Repeat }
func (l ConvLayer) outDim() int                       { return l.OutC }
func (l ConvLayer) inDim() int                        { return l.InC }
func (l ConvLayer) convEquivalent() (ConvLayer, bool) { return l, true }
func (l ConvLayer) tagged() any                       { return convLayerJSON{KindConv, l} }
func (l ConvLayer) once() shape {
	l.Repeat = 1
	return l
}

// Network is a named list of layers — a workload spec. It serializes to
// the tagged-union JSON schema (see ParseNetwork / NetworkJSON) and its
// canonical encoding hashes to a stable NetworkHash identity.
type Network struct {
	Name   string
	Layers []Layer
}

// Validate reports an unnamed or empty network, or the first inconsistent
// layer. An empty network is rejected here because downstream per-layer
// profiling would otherwise divide by a zero total and report NaN shares.
func (n Network) Validate() error {
	if n.Name == "" {
		return fmt.Errorf("nn: network has no name")
	}
	if len(n.Layers) == 0 {
		return fmt.Errorf("nn: network %s has no layers", n.Name)
	}
	for i, l := range n.Layers {
		if err := l.Validate(); err != nil {
			return fmt.Errorf("network %s: layer %d: %w", n.Name, i, err)
		}
	}
	return nil
}

// ConvLayers returns the layers that have a single-conv expression on the
// JTC (conv layers as-is, fc layers as degenerate 1×1 convs), skipping
// the transformer sublayers that decompose into multiple passes. The
// scheduler and functional engine consume this view.
func (n Network) ConvLayers() []ConvLayer {
	out := make([]ConvLayer, 0, len(n.Layers))
	for _, l := range n.Layers {
		if c, ok := l.ConvEquivalent(); ok {
			out = append(out, c)
		}
	}
	return out
}

// TotalMACs returns the network's MACs (counting repeats).
func (n Network) TotalMACs() float64 {
	var total float64
	for _, l := range n.Layers {
		total += l.MACs() * float64(l.Repeat())
	}
	return total
}

// TotalWeightBytes returns the 8-bit weight footprint.
func (n Network) TotalWeightBytes() int {
	var total int
	for _, l := range n.Layers {
		total += l.WeightBytes() * l.Repeat()
	}
	return total
}

// LayerCount returns the number of layer instances.
func (n Network) LayerCount() int {
	var total int
	for _, l := range n.Layers {
		total += l.Repeat()
	}
	return total
}

// MaxFilters returns N_F, the largest output dimension of any layer — the
// output-buffer sizing input of §5.3.3.
func (n Network) MaxFilters() int {
	max := 0
	for _, l := range n.Layers {
		if d := l.OutDim(); d > max {
			max = d
		}
	}
	return max
}

// MaxChannels returns N_C, the largest contraction dimension of any layer.
func (n Network) MaxChannels() int {
	max := 0
	for _, l := range n.Layers {
		if d := l.InDim(); d > max {
			max = d
		}
	}
	return max
}

// MaxWeightLayerBytes returns the largest single layer's weight footprint —
// the value the 512 KB per-RFCU weight SRAM is sized against (§5.2, noting
// weights are also striped across the 16 RFCUs' SRAMs).
func (n Network) MaxWeightLayerBytes() int {
	max := 0
	for _, l := range n.Layers {
		if b := l.WeightBytes(); b > max {
			max = b
		}
	}
	return max
}

// MaxActivationBytes returns the largest input+output activation resident
// set of any layer — what the 4 MB activation SRAM must hold (§5.2).
func (n Network) MaxActivationBytes() int {
	max := 0
	for _, l := range n.Layers {
		if b := l.InputBytes() + l.OutputBytes(); b > max {
			max = b
		}
	}
	return max
}
