package dataflow

import (
	"reflect"
	"strings"
	"testing"

	"refocus/internal/nn"
)

// mustEventsOf is EventsOf for layer/config pairs the test knows valid.
func mustEventsOf(t *testing.T, l nn.Layer, cfg Config) Events {
	t.Helper()
	e, err := EventsOf(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestFCMatchesConvEquivalent: a static FC lowers to exactly its
// degenerate 1×1 conv — same events, field for field.
func TestFCMatchesConvEquivalent(t *testing.T) {
	cfg := refocusConfig()
	fc := nn.FCLayer{Name: "fc", In: 768, Out: 3072, Tokens: 128, Repeat: 1}
	got := mustEventsOf(t, nn.NewFC(fc), cfg)
	want := MustLayerEvents(fc.AsConv(), cfg)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fc events %+v != conv-equivalent %+v", got, want)
	}
}

// TestFFNIsTwoFCs: the FFN block is the sum of its expand and contract
// matmuls, with the input DRAM charge applied once to the block.
func TestFFNIsTwoFCs(t *testing.T) {
	for _, fromDRAM := range []bool{false, true} {
		cfg := refocusConfig()
		cfg.InputsFromDRAM = fromDRAM
		ffn := nn.FFNLayer{Name: "ffn", SeqLen: 128, Hidden: 768, FFHidden: 3072, Repeat: 1}
		got := mustEventsOf(t, nn.NewFFN(ffn), cfg)

		sub := cfg
		sub.InputsFromDRAM = false
		want := mustEventsOf(t, nn.NewFC(nn.FCLayer{Name: "a", In: 768, Out: 3072, Tokens: 128, Repeat: 1}), sub)
		want.Add(mustEventsOf(t, nn.NewFC(nn.FCLayer{Name: "b", In: 3072, Out: 768, Tokens: 128, Repeat: 1}), sub))
		if fromDRAM {
			want.DRAMReads += float64(ffn.InputBytes())
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("fromDRAM=%v: ffn events %+v != sum of matmuls %+v", fromDRAM, got, want)
		}
	}
}

// TestAttentionDecomposition: attention is four static projections plus
// per-head dynamic score/context matmuls; the input DRAM charge lands
// once on the block.
func TestAttentionDecomposition(t *testing.T) {
	cfg := refocusConfig()
	cfg.InputsFromDRAM = true
	att := nn.AttentionLayer{Name: "attn", SeqLen: 128, Hidden: 768, Heads: 12, Repeat: 1}
	got := mustEventsOf(t, nn.NewAttention(att), cfg)

	sub := cfg
	sub.InputsFromDRAM = false
	var want Events
	proj, err := fcEvents(nn.FCLayer{Name: "p", In: 768, Out: 768, Tokens: 128, Repeat: 1}, sub, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		want.Add(proj)
	}
	scores, err := fcEvents(nn.FCLayer{Name: "s", In: att.HeadDim(), Out: 128, Tokens: 128, Repeat: 1}, sub, true)
	if err != nil {
		t.Fatal(err)
	}
	context, err := fcEvents(nn.FCLayer{Name: "c", In: 128, Out: att.HeadDim(), Tokens: 128, Repeat: 1}, sub, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < att.Heads; i++ {
		want.Add(scores)
		want.Add(context)
	}
	want.DRAMReads += float64(att.InputBytes())
	if !reflect.DeepEqual(got, want) {
		t.Errorf("attention events %+v != decomposition %+v", got, want)
	}
}

// TestDynamicOperandAccounting: with batching, a dynamic weight operand
// (attention scores/context) loses the batch amortization a static
// weight enjoys — per-image DAC writes, activation-SRAM operand reads,
// no weight SRAM or DRAM traffic.
func TestDynamicOperandAccounting(t *testing.T) {
	cfg := refocusConfig()
	cfg.Batch = 8
	fc := nn.FCLayer{Name: "m", In: 64, Out: 128, Tokens: 128, Repeat: 1}

	static, err := fcEvents(fc, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	dynamic, err := fcEvents(fc, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if dynamic.WeightDACWrites != static.WeightDACWrites*8 {
		t.Errorf("dynamic WeightDACWrites %.0f, want %.0f (8× static)",
			dynamic.WeightDACWrites, static.WeightDACWrites*8)
	}
	if dynamic.WeightSRAMReads != 0 {
		t.Errorf("dynamic operand still reads weight SRAM: %.0f", dynamic.WeightSRAMReads)
	}
	wantAct := static.ActSRAMReads + dynamic.WeightDACWrites
	if dynamic.ActSRAMReads != wantAct {
		t.Errorf("dynamic ActSRAMReads %.0f, want %.0f", dynamic.ActSRAMReads, wantAct)
	}
	wantDRAM := static.DRAMReads - float64(fc.AsConv().WeightBytes())/8
	if dynamic.DRAMReads != wantDRAM {
		t.Errorf("dynamic DRAMReads %.0f, want %.0f (no weight stream)", dynamic.DRAMReads, wantDRAM)
	}
	extra := dynamic.WeightDACWrites - static.WeightDACWrites
	if dynamic.MRRActiveCycles != static.MRRActiveCycles+extra {
		t.Errorf("dynamic MRRActiveCycles %.0f, want %.0f", dynamic.MRRActiveCycles, static.MRRActiveCycles+extra)
	}
	// Optical work is unchanged: the matmul itself is the same size.
	if dynamic.Cycles != static.Cycles || dynamic.LaserWaveguideCycles != static.LaserWaveguideCycles {
		t.Errorf("dynamic operand changed optical cycles: %+v vs %+v", dynamic, static)
	}
}

// TestMixingEventsShape: a Fourier mixing sublayer is pure lens passes —
// no weight conversions or weight memory traffic, one pass per
// (tile, channel-group), and I/O conversions covering every sample.
func TestMixingEventsShape(t *testing.T) {
	cfg := refocusConfig() // NRFCU=16, T=256, NLambda=2
	m := nn.MixingLayer{Name: "mix", SeqLen: 512, Hidden: 768, Repeat: 1}
	e, err := MixingEvents(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 512 tokens / T=256 → 2 tiles; 768 channels / (16·2) → 24 groups.
	if e.Cycles != 48 {
		t.Errorf("mixing cycles %.0f, want 48", e.Cycles)
	}
	if e.WeightDACWrites != 0 || e.WeightSRAMReads != 0 || e.DRAMReads != 0 {
		t.Errorf("passive lens charged weight traffic: %+v", e)
	}
	samples := float64(512 * 768)
	if e.InputDACWrites != samples || e.ADCReads != samples {
		t.Errorf("mixing I/O conversions %+v, want %.0f each way", e, samples)
	}
}

// TestMixingEventsInputDRAM: first-layer mixing charges its input bytes.
func TestMixingEventsInputDRAM(t *testing.T) {
	cfg := refocusConfig()
	cfg.InputsFromDRAM = true
	m := nn.MixingLayer{Name: "mix", SeqLen: 512, Hidden: 768, Repeat: 1}
	e, err := MixingEvents(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.DRAMReads != float64(m.InputBytes()) {
		t.Errorf("DRAM reads %.0f, want input bytes %d", e.DRAMReads, m.InputBytes())
	}
}

// TestEventsOfRejectsInvalid: the generic dispatcher surfaces layer and
// config validation errors instead of computing garbage.
func TestEventsOfRejectsInvalid(t *testing.T) {
	cfg := refocusConfig()
	if _, err := EventsOf(nn.Layer{}, cfg); err == nil {
		t.Error("zero layer accepted")
	}
	bad := nn.NewAttention(nn.AttentionLayer{Name: "a", SeqLen: 128, Hidden: 768, Heads: 7, Repeat: 1})
	if _, err := EventsOf(bad, cfg); err == nil || !strings.Contains(err.Error(), "heads") {
		t.Errorf("indivisible heads accepted: %v", err)
	}
	if _, err := MixingEvents(nn.MixingLayer{Name: "m", SeqLen: 1, Hidden: 1, Repeat: 1}, Config{}); err == nil {
		t.Error("zero config accepted by MixingEvents")
	}
}
