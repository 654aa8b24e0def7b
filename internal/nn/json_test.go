package nn

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestRegistryRoundTrip: every registry network must survive
// parse → dump → parse with byte-identical canonical JSON and a stable
// hash — the contract the serving layer's cache keys depend on.
func TestRegistryRoundTrip(t *testing.T) {
	hashes := map[string]string{}
	for _, n := range Networks() {
		dumped, err := NetworkJSON(n)
		if err != nil {
			t.Fatalf("%s: dump: %v", n.Name, err)
		}
		reparsed, err := ParseNetwork(dumped)
		if err != nil {
			t.Fatalf("%s: reparse of own dump: %v", n.Name, err)
		}
		redumped, err := NetworkJSON(reparsed)
		if err != nil {
			t.Fatalf("%s: redump: %v", n.Name, err)
		}
		if !bytes.Equal(dumped, redumped) {
			t.Errorf("%s: dump → parse → dump drifted", n.Name)
		}
		h1, err := NetworkHash(n)
		if err != nil {
			t.Fatalf("%s: hash: %v", n.Name, err)
		}
		h2, err := NetworkHash(reparsed)
		if err != nil {
			t.Fatalf("%s: reparsed hash: %v", n.Name, err)
		}
		if h1 != h2 {
			t.Errorf("%s: hash changed across a round trip: %s vs %s", n.Name, h1, h2)
		}
		if prev, dup := hashes[h1]; dup {
			t.Errorf("%s and %s share a network hash", n.Name, prev)
		}
		hashes[h1] = n.Name
	}
}

// TestEmbeddedSpecsAreCanonical: the shipped networks/*.json files must be
// byte-for-byte what -dump-network would emit, so the files in the repo
// are themselves proof of the canonical form.
func TestEmbeddedSpecsAreCanonical(t *testing.T) {
	for i, f := range registryFiles {
		data, err := networkFS.ReadFile("networks/" + f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		n, err := ParseNetwork(data)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		dumped, err := NetworkJSON(n)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if !bytes.Equal(data, dumped) {
			t.Errorf("%s is not in canonical dump form", f)
		}
		if got := registry()[i].Name; got != n.Name {
			t.Errorf("registry order drifted: slot %d is %s, file %s holds %s", i, got, f, n.Name)
		}
	}
}

func TestParseNetworkRejects(t *testing.T) {
	cases := map[string]string{
		"unknown kind":      `{"Name":"x","Layers":[{"Kind":"pool","Name":"p"}]}`,
		"missing kind":      `{"Name":"x","Layers":[{"Name":"p","InC":3}]}`,
		"wrong-kind field":  `{"Name":"x","Layers":[{"Kind":"fc","Name":"f","In":1,"Out":1,"Tokens":1,"Repeat":1,"KH":3}]}`,
		"unknown top field": `{"Name":"x","Frobnicate":1,"Layers":[]}`,
		"empty layers":      `{"Name":"x","Layers":[]}`,
		"no name":           `{"Layers":[{"Kind":"fc","Name":"f","In":1,"Out":1,"Tokens":1,"Repeat":1}]}`,
		"invalid shape":     `{"Name":"x","Layers":[{"Kind":"fc","Name":"f","In":0,"Out":1,"Tokens":1,"Repeat":1}]}`,
		"bad attention":     `{"Name":"x","Layers":[{"Kind":"attention","Name":"a","SeqLen":4,"Hidden":10,"Heads":3,"Repeat":1}]}`,
	}
	for label, in := range cases {
		if _, err := ParseNetwork([]byte(in)); err == nil {
			t.Errorf("%s: parse accepted %s", label, in)
		}
	}
}

func TestValidateRejectsEmptyAndUnnamed(t *testing.T) {
	if err := (Network{}).Validate(); err == nil {
		t.Error("empty network validated")
	}
	if err := (Network{Name: "x"}).Validate(); err == nil {
		t.Error("zero-layer network validated")
	}
	fc := NewFC(FCLayer{Name: "f", In: 1, Out: 1, Tokens: 1, Repeat: 1})
	if err := (Network{Layers: []Layer{fc}}).Validate(); err == nil {
		t.Error("unnamed network validated")
	}
	if err := (Network{Name: "x", Layers: []Layer{fc}}).Validate(); err != nil {
		t.Errorf("minimal valid network rejected: %v", err)
	}
	err := (Network{Name: "x", Layers: []Layer{{}}}).Validate()
	if want := "network x: layer 0: nn: layer union has 0 arms set, want exactly 1"; fmt.Sprint(err) != want {
		t.Errorf("zero layer: validation error %v, want %s", err, want)
	}
}

// TestLookupCaseInsensitiveAndMissError: every spelling of a registered
// name resolves (Resolve and ByName) to the canonical entry, and a miss
// is reported, not resolved. The miss error that lists every valid name
// is the resolver's in package sim (TestResolveNetworks).
func TestLookupCaseInsensitiveAndMissError(t *testing.T) {
	for spelled, want := range map[string]string{
		"resnet-18": "ResNet-18", "RESNET-18": "ResNet-18", "ResNet-18": "ResNet-18",
		"bert-BASE": "BERT-base", "vit-b/16": "ViT-B/16",
	} {
		regs, ok := Resolve(spelled)
		if !ok || len(regs) != 1 || regs[0].Name() != want {
			t.Errorf("Resolve(%q) = %d entries, ok %v, want %s", spelled, len(regs), ok, want)
			continue
		}
		if n, ok := ByName(spelled); !ok || n.Name != want {
			t.Errorf("ByName(%q) = %q, ok %v, want %s", spelled, n.Name, ok, want)
		}
	}
	if _, ok := Resolve("LeNet"); ok {
		t.Error("Resolve accepted LeNet")
	}
	if _, ok := ByName("LeNet"); ok {
		t.Error("ByName accepted LeNet")
	}
}

func TestLayerAccessors(t *testing.T) {
	att := NewAttention(AttentionLayer{Name: "a", SeqLen: 128, Hidden: 768, Heads: 12, Repeat: 12})
	if att.Kind() != KindAttention || att.Name() != "a" || att.Repeat() != 12 {
		t.Errorf("attention accessors: kind=%q name=%q repeat=%d", att.Kind(), att.Name(), att.Repeat())
	}
	if once := att.Once(); once.Repeat() != 1 || att.Repeat() != 12 {
		t.Error("Once must copy, not mutate")
	}
	if a, ok := att.Shape().(AttentionLayer); !ok || a.HeadDim() != 64 {
		t.Errorf("attention shape %+v, ok %v: want head dim 64", att.Shape(), ok)
	}
	// 4·S·H² + 2·S²·H for S=128, H=768.
	if want := 4*128.0*768*768 + 2*128.0*128*768; att.MACs() != want {
		t.Errorf("attention MACs = %g, want %g", att.MACs(), want)
	}
	fc := NewFC(FCLayer{Name: "f", In: 768, Out: 1000, Tokens: 1, Repeat: 1})
	conv, ok := fc.ConvEquivalent()
	if !ok || conv.MACs() != fc.MACs() || conv.WeightBytes() != fc.WeightBytes() {
		t.Errorf("fc conv-equivalent mismatch: %+v vs MACs %g", conv, fc.MACs())
	}
	mix := NewMixing(MixingLayer{Name: "m", SeqLen: 512, Hidden: 768, Repeat: 12})
	if _, ok := mix.ConvEquivalent(); ok {
		t.Error("mixing layer claimed a single-conv equivalent")
	}
	if mix.MACs() != 0 || mix.WeightBytes() != 0 {
		t.Error("mixing layer must be unparameterized")
	}
	ffn := NewFFN(FFNLayer{Name: "n", SeqLen: 128, Hidden: 768, FFHidden: 3072, Repeat: 1})
	if want := 2 * 128.0 * 768 * 3072; ffn.MACs() != want {
		t.Errorf("ffn MACs = %g, want %g", ffn.MACs(), want)
	}
}

// TestTransformerTotals pins the registry transformer workloads to their
// published compute figures (BERT-base ≈11.2 GMACs at seq 128, ViT-B/16
// ≈17.6 GMACs — Dosovitskiy et al. report 17.5 G).
func TestTransformerTotals(t *testing.T) {
	if g := BERTBase().TotalMACs() / 1e9; relErr(g, 11.17) > 0.03 {
		t.Errorf("BERT-base = %.2f GMACs, want ≈11.2", g)
	}
	if g := ViTB16().TotalMACs() / 1e9; relErr(g, 17.56) > 0.03 {
		t.Errorf("ViT-B/16 = %.2f GMACs, want ≈17.6", g)
	}
	if FNetBase().TotalMACs() == 0 {
		t.Error("FNet-base FFN stack must have nonzero MACs")
	}
}

// FuzzParseNetwork drives arbitrary bytes through the strict tagged-union
// decoder: any input that parses must validate, re-encode canonically,
// and re-parse to the same canonical bytes and hash.
func FuzzParseNetwork(f *testing.F) {
	for _, fname := range registryFiles {
		data, err := networkFS.ReadFile("networks/" + fname)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"Name":"x","Layers":[{"Kind":"fourier-mixing","Name":"m","SeqLen":4,"Hidden":4,"Repeat":1}]}`))
	f.Add([]byte(`{"Name":"x","Layers":[{"Kind":"conv","Name":"c"}]}`))
	f.Add([]byte(`{"Layers":[{"Kind":"pool"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := ParseNetwork(data)
		if err != nil {
			return
		}
		if err := n.Validate(); err != nil {
			t.Fatalf("parsed network fails validation: %v", err)
		}
		canon, err := CanonicalNetworkJSON(n)
		if err != nil {
			t.Fatalf("parsed network fails to encode: %v", err)
		}
		n2, err := ParseNetwork(canon)
		if err != nil {
			t.Fatalf("canonical encoding fails to reparse: %v", err)
		}
		canon2, err := CanonicalNetworkJSON(n2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canon, canon2) {
			t.Fatalf("canonical form unstable:\n%s\n%s", canon, canon2)
		}
		h1, _ := NetworkHash(n)
		h2, _ := NetworkHash(n2)
		if h1 != h2 {
			t.Fatalf("hash unstable across round trip: %s vs %s", h1, h2)
		}
	})
}

// TestLayerAccessorTable drives every kind (and the invalid zero Layer)
// through the full accessor surface, pinning the footprint and
// buffer-sizing formulas per kind.
func TestLayerAccessorTable(t *testing.T) {
	cases := []struct {
		layer              Layer
		kind               LayerKind
		shape              string // the type Shape returns
		name               string
		repeat             int
		macs               float64
		weightB, inB, outB int
		outDim, inDim      int
		convEq             bool
	}{
		{
			layer: NewConv(ConvLayer{Name: "c", InC: 3, InH: 8, InW: 8, OutC: 16, KH: 3, KW: 3, Stride: 1, Pad: 1, Repeat: 2}),
			kind:  KindConv, shape: "nn.ConvLayer", name: "c", repeat: 2, macs: 16 * 8 * 8 * 3 * 3 * 3,
			weightB: 16 * 3 * 3 * 3, inB: 3 * 8 * 8, outB: 16 * 8 * 8,
			outDim: 16, inDim: 3, convEq: true,
		},
		{
			layer: NewFC(FCLayer{Name: "f", In: 64, Out: 10, Tokens: 4, Repeat: 3}),
			kind:  KindFC, shape: "nn.FCLayer", name: "f", repeat: 3, macs: 64 * 10 * 4,
			weightB: 64 * 10, inB: 64 * 4, outB: 10 * 4,
			outDim: 10, inDim: 64, convEq: true,
		},
		{
			layer: NewMixing(MixingLayer{Name: "m", SeqLen: 32, Hidden: 16, Repeat: 4}),
			kind:  KindMixing, shape: "nn.MixingLayer", name: "m", repeat: 4, macs: 0,
			weightB: 0, inB: 32 * 16, outB: 32 * 16,
			outDim: 16, inDim: 16, convEq: false,
		},
		{
			layer: NewAttention(AttentionLayer{Name: "a", SeqLen: 96, Hidden: 64, Heads: 4, Repeat: 5}),
			kind:  KindAttention, shape: "nn.AttentionLayer", name: "a", repeat: 5, macs: 4*96*64*64 + 2*96*96*64,
			weightB: 4 * 64 * 64, inB: 96 * 64, outB: 96 * 64,
			outDim: 96, inDim: 96, convEq: false, // SeqLen > Hidden dominates
		},
		{
			layer: NewFFN(FFNLayer{Name: "n", SeqLen: 8, Hidden: 16, FFHidden: 64, Repeat: 6}),
			kind:  KindFFN, shape: "nn.FFNLayer", name: "n", repeat: 6, macs: 2 * 8 * 16 * 64,
			weightB: 2 * 16 * 64, inB: 8 * 16, outB: 8 * 16,
			outDim: 64, inDim: 64, convEq: false, // FFHidden dominates
		},
	}
	for _, c := range cases {
		l := c.layer
		if l.Kind() != c.kind || l.Name() != c.name || l.Repeat() != c.repeat {
			t.Errorf("%s: kind=%q name=%q repeat=%d", c.kind, l.Kind(), l.Name(), l.Repeat())
		}
		if l.MACs() != c.macs {
			t.Errorf("%s: MACs = %g, want %g", c.kind, l.MACs(), c.macs)
		}
		if got := fmt.Sprintf("%T", l.Shape()); got != c.shape {
			t.Errorf("%s: Shape is a %s, want %s", c.kind, got, c.shape)
		}
		if l.WeightBytes() != c.weightB || l.InputBytes() != c.inB || l.OutputBytes() != c.outB {
			t.Errorf("%s: footprints weight=%d in=%d out=%d, want %d/%d/%d",
				c.kind, l.WeightBytes(), l.InputBytes(), l.OutputBytes(), c.weightB, c.inB, c.outB)
		}
		if l.OutDim() != c.outDim || l.InDim() != c.inDim {
			t.Errorf("%s: dims out=%d in=%d, want %d/%d", c.kind, l.OutDim(), l.InDim(), c.outDim, c.inDim)
		}
		if _, ok := l.ConvEquivalent(); ok != c.convEq {
			t.Errorf("%s: ConvEquivalent ok=%v, want %v", c.kind, ok, c.convEq)
		}
		once := l.Once()
		if once.Repeat() != 1 || l.Repeat() != c.repeat || once.Kind() != c.kind {
			t.Errorf("%s: Once repeat=%d (orig %d)", c.kind, once.Repeat(), l.Repeat())
		}
		if err := l.Validate(); err != nil {
			t.Errorf("%s: valid layer rejected: %v", c.kind, err)
		}
	}
	// The zero Layer answers every accessor with its zero value, and
	// fails validation and encoding.
	var zero Layer
	if zero.Shape() != nil || zero.Kind() != "" || zero.Name() != "" || zero.Repeat() != 0 || zero.MACs() != 0 ||
		zero.WeightBytes() != 0 || zero.InputBytes() != 0 || zero.OutputBytes() != 0 ||
		zero.OutDim() != 0 || zero.InDim() != 0 {
		t.Error("zero Layer leaked a non-zero accessor value")
	}
	if zero.Once() != zero {
		t.Errorf("Once on the zero Layer gave %+v", zero.Once())
	}
	if err := zero.Validate(); fmt.Sprint(err) != "nn: layer union has 0 arms set, want exactly 1" {
		t.Errorf("zero Layer: Validate = %v", err)
	}
	if _, err := zero.MarshalJSON(); fmt.Sprint(err) != "nn: encoding layer: union has 0 arms set, want exactly 1" {
		t.Errorf("zero Layer: MarshalJSON error %v", err)
	}
	if _, ok := zero.ConvEquivalent(); ok {
		t.Error("zero Layer claimed a conv equivalent")
	}
}

// TestMustNetworkHashMatchesNetworkHash: the Must variant is the same
// hash, and it panics on an unencodable network rather than guessing.
func TestMustNetworkHashMatchesNetworkHash(t *testing.T) {
	want, err := NetworkHash(ResNet18())
	if err != nil {
		t.Fatal(err)
	}
	if got := MustNetworkHash(ResNet18()); got != want {
		t.Errorf("MustNetworkHash %s != NetworkHash %s", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNetworkHash on a zero Layer did not panic")
		}
	}()
	MustNetworkHash(Network{Name: "bad", Layers: []Layer{{}}})
}

// TestWorkloadHashesMatchFreshEncoding: the hashes the registry computes
// when it loads are NetworkHash of a fresh ByName clone, for every name
// in any case, for "all", and in Hashes; and mutating a clone of a
// resolved entry leaves the registry's hash as it was.
func TestWorkloadHashesMatchFreshEncoding(t *testing.T) {
	fresh := func(name string) string {
		n, ok := ByName(name)
		if !ok {
			t.Fatalf("ByName(%q) missed", name)
		}
		h, err := NetworkHash(n)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	all := Hashes()
	for i, name := range Names() {
		if want := fresh(name); all[i] != want {
			t.Errorf("Hashes()[%d] (%s) = %s, want %s", i, name, all[i], want)
		}
		for _, spelled := range []string{name, strings.ToLower(name), strings.ToUpper(name)} {
			regs, ok := Resolve(spelled)
			if !ok || len(regs) != 1 {
				t.Fatalf("Resolve(%q) = %d entries, ok %v", spelled, len(regs), ok)
			}
			if regs[0].Name() != name || regs[0].Hash() != fresh(name) || regs[0].Network().Name != name {
				t.Errorf("Resolve(%q) = %s %s, want %s %s", spelled, regs[0].Name(), regs[0].Hash(), name, fresh(name))
			}
		}
	}
	for _, spelled := range []string{"all", "ALL", "All"} {
		regs, ok := Resolve(spelled)
		if !ok || len(regs) != 5 {
			t.Fatalf("Resolve(%q) = %d entries, ok %v", spelled, len(regs), ok)
		}
		for i, n := range Benchmarks() {
			if regs[i].Name() != n.Name || regs[i].Hash() != fresh(n.Name) {
				t.Errorf("Resolve(%q)[%d] = %s %s, want %s %s", spelled, i, regs[i].Name(), regs[i].Hash(), n.Name, fresh(n.Name))
			}
		}
	}
	for _, name := range []string{"LeNet", ""} {
		if _, ok := Resolve(name); ok {
			t.Errorf("Resolve accepted %q", name)
		}
	}

	// A handed-out copy is the caller's: replacing a layer, deleting one
	// in place (which shifts the rest down the copy's array) or reslicing
	// moves neither the registry hash nor a fresh copy's.
	before := fresh("ResNet-50")
	regs, _ := Resolve("ResNet-50")
	net := regs[0].Network()
	conv, _ := net.Layers[0].ConvEquivalent()
	conv.Repeat += 7
	net.Layers[0] = NewConv(conv)
	net.Layers = append(net.Layers[:1], net.Layers[2:]...)[1:]
	if got := fresh("ResNet-50"); got != before {
		t.Errorf("changing a resolved copy moved the fresh hash: %s -> %s", before, got)
	}
	if regs[0].Hash() != before {
		t.Errorf("changing a resolved copy moved the registry hash: %s -> %s", before, regs[0].Hash())
	}
	if changed, _ := NetworkHash(net); changed == before {
		t.Error("the change did not move the copy's own hash")
	}
}

// TestRegisteredNetworkAllocatesOnce: a registry copy is its layer list
// and nothing else, one allocation however many layers the network has.
func TestRegisteredNetworkAllocatesOnce(t *testing.T) {
	regs, _ := Resolve("ResNet-50")
	var sink Network
	if n := testing.AllocsPerRun(100, func() { sink = regs[0].Network() }); n > 1 {
		t.Errorf("Registered.Network of ResNet-50 made %v allocations, want at most 1", n)
	}
	if len(sink.Layers) == 0 {
		t.Fatal("empty copy")
	}
}
