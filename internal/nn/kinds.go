package nn

import (
	"errors"
	"fmt"
)

// LayerKind tags the kind a Layer holds. The string values are the
// "Kind" discriminator of the network-spec JSON schema, so they are part
// of the on-disk contract and must stay stable.
type LayerKind string

// The layer taxonomy: convolutions (the paper's §6 benchmarks), dense
// matmuls, and the §7.4 transformer sublayers (Fourier token mixing,
// self-attention, position-wise FFN).
const (
	// KindConv is a 2-D convolution layer (ConvLayer).
	KindConv LayerKind = "conv"
	// KindFC is a dense matmul / fully-connected layer (FCLayer).
	KindFC LayerKind = "fc"
	// KindMixing is an FNet-style Fourier token-mixing sublayer
	// (MixingLayer) — the unparameterized transform of §7.4.
	KindMixing LayerKind = "fourier-mixing"
	// KindAttention is a multi-head self-attention sublayer
	// (AttentionLayer).
	KindAttention LayerKind = "attention"
	// KindFFN is a transformer position-wise feed-forward sublayer
	// (FFNLayer).
	KindFFN LayerKind = "ffn"
)

// FCLayer is a dense matmul: Tokens independent input vectors of In
// features each multiplied by an Out×In weight matrix. A classifier head
// is Tokens=1; a per-token projection in a transformer block is
// Tokens=sequence length. On the JTC it executes as a degenerate 1×1
// convolution over Tokens spatial positions (see dataflow).
type FCLayer struct {
	Name   string
	In     int // input features (contraction dimension)
	Out    int // output features
	Tokens int // independent input vectors sharing the weights
	// Repeat counts identical instances, like ConvLayer.Repeat.
	Repeat int
}

// Validate reports an inconsistent shape.
func (l FCLayer) Validate() error {
	if l.In <= 0 || l.Out <= 0 || l.Tokens <= 0 || l.Repeat <= 0 {
		return fmt.Errorf("nn: invalid fc layer %+v", l)
	}
	return nil
}

// AsConv returns the degenerate 1×1-conv expression of the matmul: In
// channels → Out filters over Tokens×1 spatial positions. MACs, weight
// and activation footprints are identical to the matmul's own.
func (l FCLayer) AsConv() ConvLayer {
	return ConvLayer{
		Name: l.Name, InC: l.In, InH: l.Tokens, InW: 1,
		OutC: l.Out, KH: 1, KW: 1, Stride: 1, Pad: 0, Repeat: l.Repeat,
	}
}

// MACs returns multiply-accumulates for one instance.
func (l FCLayer) MACs() float64 {
	return float64(l.In) * float64(l.Out) * float64(l.Tokens)
}

// WeightBytes returns the 8-bit weight footprint of one instance.
func (l FCLayer) WeightBytes() int { return l.In * l.Out }

// InputBytes returns the 8-bit input activation footprint.
func (l FCLayer) InputBytes() int { return l.In * l.Tokens }

// OutputBytes returns the 8-bit output activation footprint.
func (l FCLayer) OutputBytes() int { return l.Out * l.Tokens }

// The shape methods of FCLayer (see Layer).
func (l FCLayer) kind() LayerKind                   { return KindFC }
func (l FCLayer) name() string                      { return l.Name }
func (l FCLayer) repeat() int                       { return l.Repeat }
func (l FCLayer) outDim() int                       { return l.Out }
func (l FCLayer) inDim() int                        { return l.In }
func (l FCLayer) convEquivalent() (ConvLayer, bool) { return l.AsConv(), true }
func (l FCLayer) tagged() any                       { return fcLayerJSON{KindFC, l} }
func (l FCLayer) once() shape {
	l.Repeat = 1
	return l
}

// MixingLayer is an FNet-style Fourier token-mixing sublayer on a
// [SeqLen][Hidden] activation block: y = Re(FFT_seq(FFT_hidden(x))).
// It has no weights — on ReFOCUS the sequence-dimension transform is the
// lens's native operation (§7.4, internal/transformer).
type MixingLayer struct {
	Name   string
	SeqLen int // tokens
	Hidden int // embedding width
	Repeat int
}

// Validate reports an inconsistent shape.
func (l MixingLayer) Validate() error {
	if l.SeqLen <= 0 || l.Hidden <= 0 || l.Repeat <= 0 {
		return fmt.Errorf("nn: invalid fourier-mixing layer %+v", l)
	}
	return nil
}

// MACs is zero: the transform is unparameterized and the lens computes
// it passively — there are no weighted multiply-accumulates to count.
func (l MixingLayer) MACs() float64 { return 0 }

// WeightBytes is zero — the mixing sublayer has no parameters.
func (l MixingLayer) WeightBytes() int { return 0 }

// InputBytes returns the 8-bit input activation footprint.
func (l MixingLayer) InputBytes() int { return l.SeqLen * l.Hidden }

// OutputBytes returns the 8-bit output activation footprint.
func (l MixingLayer) OutputBytes() int { return l.SeqLen * l.Hidden }

// The shape methods of MixingLayer (see Layer).
func (l MixingLayer) kind() LayerKind                   { return KindMixing }
func (l MixingLayer) name() string                      { return l.Name }
func (l MixingLayer) repeat() int                       { return l.Repeat }
func (l MixingLayer) outDim() int                       { return l.Hidden }
func (l MixingLayer) inDim() int                        { return l.Hidden }
func (l MixingLayer) convEquivalent() (ConvLayer, bool) { return ConvLayer{}, false }
func (l MixingLayer) tagged() any                       { return mixingLayerJSON{KindMixing, l} }
func (l MixingLayer) once() shape {
	l.Repeat = 1
	return l
}

// AttentionLayer is one multi-head self-attention sublayer over a
// [SeqLen][Hidden] block: q/k/v/output projections plus the per-head
// score (QKᵀ) and context (scores·V) matmuls. Hidden must divide evenly
// into Heads.
type AttentionLayer struct {
	Name   string
	SeqLen int
	Hidden int
	Heads  int
	Repeat int
}

// Validate reports an inconsistent shape.
func (l AttentionLayer) Validate() error {
	if l.SeqLen <= 0 || l.Hidden <= 0 || l.Heads <= 0 || l.Repeat <= 0 {
		return fmt.Errorf("nn: invalid attention layer %+v", l)
	}
	if l.Hidden%l.Heads != 0 {
		return fmt.Errorf("nn: attention layer %s: hidden %d not divisible by %d heads", l.Name, l.Hidden, l.Heads)
	}
	return nil
}

// HeadDim returns Hidden/Heads, the per-head projection width.
func (l AttentionLayer) HeadDim() int { return l.Hidden / l.Heads }

// MACs returns multiply-accumulates for one instance: the four Hidden²
// projections plus the two SeqLen²·Hidden attention matmuls.
func (l AttentionLayer) MACs() float64 {
	s, h := float64(l.SeqLen), float64(l.Hidden)
	return 4*s*h*h + 2*s*s*h
}

// WeightBytes returns the 8-bit parameter footprint (the four projection
// matrices; the score/context operands are activations).
func (l AttentionLayer) WeightBytes() int { return 4 * l.Hidden * l.Hidden }

// InputBytes returns the 8-bit input activation footprint.
func (l AttentionLayer) InputBytes() int { return l.SeqLen * l.Hidden }

// OutputBytes returns the 8-bit output activation footprint.
func (l AttentionLayer) OutputBytes() int { return l.SeqLen * l.Hidden }

// The shape methods of AttentionLayer (see Layer).
func (l AttentionLayer) kind() LayerKind                   { return KindAttention }
func (l AttentionLayer) name() string                      { return l.Name }
func (l AttentionLayer) repeat() int                       { return l.Repeat }
func (l AttentionLayer) outDim() int                       { return max(l.Hidden, l.SeqLen) }
func (l AttentionLayer) inDim() int                        { return max(l.Hidden, l.SeqLen) }
func (l AttentionLayer) convEquivalent() (ConvLayer, bool) { return ConvLayer{}, false }
func (l AttentionLayer) tagged() any                       { return attentionLayerJSON{KindAttention, l} }
func (l AttentionLayer) once() shape {
	l.Repeat = 1
	return l
}

// FFNLayer is a transformer position-wise feed-forward sublayer: two
// matmuls Hidden → FFHidden → Hidden applied to each of SeqLen tokens.
type FFNLayer struct {
	Name     string
	SeqLen   int
	Hidden   int
	FFHidden int // expansion width (4×Hidden in BERT/ViT)
	Repeat   int
}

// Validate reports an inconsistent shape.
func (l FFNLayer) Validate() error {
	if l.SeqLen <= 0 || l.Hidden <= 0 || l.FFHidden <= 0 || l.Repeat <= 0 {
		return fmt.Errorf("nn: invalid ffn layer %+v", l)
	}
	return nil
}

// MACs returns multiply-accumulates for one instance (both matmuls).
func (l FFNLayer) MACs() float64 {
	return 2 * float64(l.SeqLen) * float64(l.Hidden) * float64(l.FFHidden)
}

// WeightBytes returns the 8-bit weight footprint of one instance.
func (l FFNLayer) WeightBytes() int { return 2 * l.Hidden * l.FFHidden }

// InputBytes returns the 8-bit input activation footprint.
func (l FFNLayer) InputBytes() int { return l.SeqLen * l.Hidden }

// OutputBytes returns the 8-bit output activation footprint.
func (l FFNLayer) OutputBytes() int { return l.SeqLen * l.Hidden }

// The shape methods of FFNLayer (see Layer).
func (l FFNLayer) kind() LayerKind                   { return KindFFN }
func (l FFNLayer) name() string                      { return l.Name }
func (l FFNLayer) repeat() int                       { return l.Repeat }
func (l FFNLayer) outDim() int                       { return max(l.FFHidden, l.Hidden) }
func (l FFNLayer) inDim() int                        { return max(l.FFHidden, l.Hidden) }
func (l FFNLayer) convEquivalent() (ConvLayer, bool) { return ConvLayer{}, false }
func (l FFNLayer) tagged() any                       { return ffnLayerJSON{KindFFN, l} }
func (l FFNLayer) once() shape {
	l.Repeat = 1
	return l
}

// Layer holds one layer of the taxonomy by value: exactly one kind's
// shape (ConvLayer, FCLayer, MixingLayer, AttentionLayer or FFNLayer).
// Construct with NewConv/NewFC/NewMixing/NewAttention/NewFFN (or by
// parsing a network spec); the zero value is the one invalid layer, and
// it answers every accessor with a zero. Nothing inside a Layer can be
// changed in place, so copying a Layer, or a slice of them, copies the
// workload. It serializes as a flat JSON object discriminated by a "Kind"
// field (see ParseNetwork).
type Layer struct{ s shape }

// shape is the per-kind method set behind Layer: each kind answers for
// itself, and noShape for the zero Layer. It is the one home of every
// per-kind choice but two: the decoder's Kind→type mapping (json.go) and
// the lowering (dataflow.EventsOf).
type shape interface {
	kind() LayerKind
	Validate() error
	MACs() float64
	WeightBytes() int
	InputBytes() int
	OutputBytes() int
	name() string
	repeat() int
	once() shape
	outDim() int
	inDim() int
	convEquivalent() (ConvLayer, bool)
	tagged() any
}

// NewConv wraps a convolution layer.
func NewConv(l ConvLayer) Layer { return Layer{l} }

// NewFC wraps a dense matmul layer.
func NewFC(l FCLayer) Layer { return Layer{l} }

// NewMixing wraps a Fourier token-mixing sublayer.
func NewMixing(l MixingLayer) Layer { return Layer{l} }

// NewAttention wraps a self-attention sublayer.
func NewAttention(l AttentionLayer) Layer { return Layer{l} }

// NewFFN wraps a feed-forward sublayer.
func NewFFN(l FFNLayer) Layer { return Layer{l} }

// impl returns the layer's per-kind method set.
func (l Layer) impl() shape {
	if l.s == nil {
		return noShape{}
	}
	return l.s
}

// Shape returns a copy of the layer's kind-specific shape (a ConvLayer,
// FCLayer, MixingLayer, AttentionLayer or FFNLayer), or nil for the zero
// Layer, for a caller that type-switches on the kind (dataflow.EventsOf).
func (l Layer) Shape() any { return l.s }

// Kind returns the layer's tag, or "" for the zero Layer.
func (l Layer) Kind() LayerKind { return l.impl().kind() }

// Validate reports the zero Layer or an inconsistent shape.
func (l Layer) Validate() error { return l.impl().Validate() }

// Name returns the layer's name.
func (l Layer) Name() string { return l.impl().name() }

// Repeat returns the identical-instance count.
func (l Layer) Repeat() int { return l.impl().repeat() }

// Once returns a copy of the layer with Repeat forced to 1 — the single
// instance a per-layer profiler evaluates.
func (l Layer) Once() Layer { return Layer{l.impl().once()} }

// MACs returns multiply-accumulates for one instance of the layer.
func (l Layer) MACs() float64 { return l.impl().MACs() }

// WeightBytes returns the 8-bit parameter footprint of one instance.
func (l Layer) WeightBytes() int { return l.impl().WeightBytes() }

// InputBytes returns the 8-bit input activation footprint.
func (l Layer) InputBytes() int { return l.impl().InputBytes() }

// OutputBytes returns the 8-bit output activation footprint.
func (l Layer) OutputBytes() int { return l.impl().OutputBytes() }

// OutDim returns the layer's widest output dimension — the N_F
// contribution that sizes the §5.3.3 output buffer (filters for conv,
// output features for fc, the largest matmul output for the transformer
// sublayers).
func (l Layer) OutDim() int { return l.impl().outDim() }

// InDim returns the layer's widest contraction dimension — the N_C
// channel-count twin of OutDim.
func (l Layer) InDim() int { return l.impl().inDim() }

// ConvEquivalent returns the layer's single-conv expression when one
// exists: the conv itself, or an FC's degenerate 1×1 conv. Mixing,
// attention and FFN sublayers decompose into multiple passes instead
// (see the dataflow package) and report false.
func (l Layer) ConvEquivalent() (ConvLayer, bool) { return l.impl().convEquivalent() }

// noShape answers for the zero Layer: Validate fails, the JSON wrapper is
// nil (an encoding error) and every count is zero.
type noShape struct{}

func (noShape) kind() LayerKind                   { return "" }
func (noShape) name() string                      { return "" }
func (noShape) repeat() int                       { return 0 }
func (noShape) once() shape                       { return nil }
func (noShape) outDim() int                       { return 0 }
func (noShape) inDim() int                        { return 0 }
func (noShape) convEquivalent() (ConvLayer, bool) { return ConvLayer{}, false }
func (noShape) tagged() any                       { return nil }

// Validate fails: the zero Layer is the one invalid layer.
func (noShape) Validate() error {
	return errors.New("nn: layer union has 0 arms set, want exactly 1")
}

// MACs is zero.
func (noShape) MACs() float64 { return 0 }

// WeightBytes is zero.
func (noShape) WeightBytes() int { return 0 }

// InputBytes is zero.
func (noShape) InputBytes() int { return 0 }

// OutputBytes is zero.
func (noShape) OutputBytes() int { return 0 }
