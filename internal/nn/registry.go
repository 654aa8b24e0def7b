package nn

import (
	"embed"
	"strings"
	"sync"
)

// The built-in workload registry. Every network ships as an embedded
// canonical JSON spec under networks/ — the same schema users feed to
// refocus-sim -network-file — so "built-in" means pinned data, not code:
// the paper's five CNN benchmarks (§6, conv tables following the standard
// torchvision ImageNet graphs), plus the §7.4 transformer workloads
// (BERT-base, ViT-B/16, FNet-base).

//go:embed networks/*.json
var networkFS embed.FS

// registryFiles lists the embedded specs in curated order: the paper's
// five evaluation networks first (its §6 order), then the transformer
// workloads.
var registryFiles = []string{
	"alexnet.json",
	"vgg16.json",
	"resnet18.json",
	"resnet34.json",
	"resnet50.json",
	"bert-base.json",
	"vit-b16.json",
	"fnet-base.json",
}

// numBenchmarks is how many registry entries, from the first, are the
// paper's evaluation networks: the workload "all" names.
const numBenchmarks = 5

// entry is one registry network and its canonical hash (NetworkHash).
type entry struct {
	Network
	hash string
}

var (
	registryOnce sync.Once
	registryNets []entry
)

// registry parses and hashes the embedded specs once. A failure here is a
// bug in the shipped data (the files are generated by the codec and
// round-tripped in CI), so it panics like the old compiled-in tables did.
func registry() []entry {
	registryOnce.Do(func() {
		registryNets = make([]entry, 0, len(registryFiles))
		for _, f := range registryFiles {
			data, err := networkFS.ReadFile("networks/" + f)
			if err != nil {
				panic("nn: embedded network spec " + f + ": " + err.Error())
			}
			n, err := ParseNetwork(data)
			if err != nil {
				panic("nn: embedded network spec " + f + ": " + err.Error())
			}
			registryNets = append(registryNets, entry{Network: n, hash: MustNetworkHash(n)})
		}
	})
	return registryNets
}

// clone deep-copies a network so callers can mutate their copy without
// corrupting the shared registry (layer arms are pointers).
func (n Network) clone() Network {
	out := Network{Name: n.Name, Layers: make([]Layer, len(n.Layers))}
	for i, l := range n.Layers {
		switch {
		case l.Conv != nil:
			c := *l.Conv
			out.Layers[i] = Layer{Conv: &c}
		case l.FC != nil:
			c := *l.FC
			out.Layers[i] = Layer{FC: &c}
		case l.Mixing != nil:
			c := *l.Mixing
			out.Layers[i] = Layer{Mixing: &c}
		case l.Attention != nil:
			c := *l.Attention
			out.Layers[i] = Layer{Attention: &c}
		case l.FFN != nil:
			c := *l.FFN
			out.Layers[i] = Layer{FFN: &c}
		}
	}
	return out
}

// clones deep-copies the networks of entries.
func clones(entries []entry) []Network {
	out := make([]Network, len(entries))
	for i, e := range entries {
		out[i] = e.clone()
	}
	return out
}

// Networks returns every registered workload in curated order (the five
// CNN benchmarks in the paper's order, then the transformer networks).
func Networks() []Network { return clones(registry()) }

// hashesOf returns the hashes of entries.
func hashesOf(entries []entry) []string {
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.hash
	}
	return out
}

// Hashes returns the canonical hash (NetworkHash) of every registered
// workload, in Networks' order. The registry computes them once, when it
// loads.
func Hashes() []string { return hashesOf(registry()) }

// Registered is one registry network, read in place: Name and Hash (the
// canonical hash the registry computed when it loaded) copy nothing, and
// Network deep-clones the entry for a caller that evaluates or changes it.
type Registered struct{ e *entry }

// Name returns the network's registered name.
func (r Registered) Name() string { return r.e.Name }

// Hash returns the network's canonical hash (NetworkHash).
func (r Registered) Hash() string { return r.e.hash }

// Network returns a deep clone of the network.
func (r Registered) Network() Network { return r.e.clone() }

// Resolve is the one lookup of a workload name: one registered network
// (case-insensitive), or the five Benchmarks for "all". It returns the
// registry entries in place, so a caller that needs only names and
// hashes (a cached result, a route key, a job ID) copies nothing. ok is
// false for an unknown name.
func Resolve(name string) ([]Registered, bool) {
	reg := registry()
	sel := reg[:numBenchmarks]
	if !strings.EqualFold(name, "all") {
		i := index(name)
		if i < 0 {
			return nil, false
		}
		sel = reg[i : i+1]
	}
	out := make([]Registered, len(sel))
	for i := range sel {
		out[i] = Registered{&sel[i]}
	}
	return out, true
}

// index returns the registry position of a network name
// (case-insensitive), or -1.
func index(name string) int {
	for i, e := range registry() {
		if strings.EqualFold(e.Name, name) {
			return i
		}
	}
	return -1
}

// Names returns the registered network names in curated order.
func Names() []string {
	reg := registry()
	out := make([]string, len(reg))
	for i, e := range reg {
		out[i] = e.Name
	}
	return out
}

// Benchmarks returns the paper's five evaluation networks in its order.
func Benchmarks() []Network { return clones(registry()[:numBenchmarks]) }

// Table4Networks returns the four networks the paper's Table-4
// design-space exploration geo-means over (§5.4.1).
func Table4Networks() []Network { return clones(registry()[1:numBenchmarks]) }

// ByName returns a clone of one registered network, found
// case-insensitively ("resnet-50" finds "ResNet-50"), or false when
// unknown.
func ByName(name string) (Network, bool) {
	i := index(name)
	if i < 0 {
		return Network{}, false
	}
	return registry()[i].clone(), true
}

// Convenience constructors for the registry entries that predate it, kept
// so call sites read like the paper. They panic only if the embedded data
// is broken, matching the old compiled-in behavior.

// AlexNet returns the torchvision AlexNet conv stack (Krizhevsky et al.
// [27], 224×224 single-crop variant).
func AlexNet() Network { return mustByName("AlexNet") }

// VGG16 returns the VGG-16 conv stack (Simonyan & Zisserman [54]).
func VGG16() Network { return mustByName("VGG-16") }

// ResNet18 returns the ResNet-18 conv stack (He et al. [23]).
func ResNet18() Network { return mustByName("ResNet-18") }

// ResNet34 returns the ResNet-34 conv stack (He et al. [23]).
func ResNet34() Network { return mustByName("ResNet-34") }

// ResNet50 returns the ResNet-50 bottleneck conv stack (He et al. [23]).
func ResNet50() Network { return mustByName("ResNet-50") }

// BERTBase returns the BERT-base encoder stack at sequence length 128
// (Devlin et al.): 12 blocks of self-attention + FFN, plus the pooler.
func BERTBase() Network { return mustByName("BERT-base") }

// ViTB16 returns the ViT-B/16 stack on 224×224 inputs (Dosovitskiy et
// al.): the 16×16 patch-embedding conv, 12 encoder blocks over 197
// tokens, and the classifier head.
func ViTB16() Network { return mustByName("ViT-B/16") }

// FNetBase returns the FNet-base stack at sequence length 512 (Lee-Thorp
// et al. [30]): 12 blocks of Fourier token mixing + FFN — the §7.4
// workload whose mixing the lens computes natively.
func FNetBase() Network { return mustByName("FNet-base") }

func mustByName(name string) Network {
	n, ok := ByName(name)
	if !ok {
		panic("nn: built-in network " + name + " missing from registry")
	}
	return n
}
