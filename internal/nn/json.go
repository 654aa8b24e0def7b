package nn

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
)

// The network-spec codec makes a workload a serializable artifact, the twin
// of the arch package's SystemConfig codec: layers travel as flat JSON
// objects discriminated by a "Kind" field, parsing is strict (unknown
// fields and unknown kinds are errors, not silent fallbacks), and a
// canonical encoding + SHA-256 hash give every network a stable identity
// the serving layer keys caches on. See DESIGN.md §12 for the schema.

// Per-kind wrappers: embedding inlines the layer's fields next to the Kind
// discriminator, so specs read flat ({"Kind":"conv","Name":...}) while the
// Go side stays typed. Each kind's tagged method returns its wrapper.
type convLayerJSON struct {
	Kind LayerKind
	ConvLayer
}

type fcLayerJSON struct {
	Kind LayerKind
	FCLayer
}

type mixingLayerJSON struct {
	Kind LayerKind
	MixingLayer
}

type attentionLayerJSON struct {
	Kind LayerKind
	AttentionLayer
}

type ffnLayerJSON struct {
	Kind LayerKind
	FFNLayer
}

// The wrappers' layers, for decodeArm.
func (w *convLayerJSON) layer() Layer      { return Layer{w.ConvLayer} }
func (w *fcLayerJSON) layer() Layer        { return Layer{w.FCLayer} }
func (w *mixingLayerJSON) layer() Layer    { return Layer{w.MixingLayer} }
func (w *attentionLayerJSON) layer() Layer { return Layer{w.AttentionLayer} }
func (w *ffnLayerJSON) layer() Layer       { return Layer{w.FFNLayer} }

// MarshalJSON encodes the layer as a flat object with its Kind tag first.
// The zero Layer is an encoding error.
func (l Layer) MarshalJSON() ([]byte, error) {
	w := l.impl().tagged()
	if w == nil {
		return nil, errors.New("nn: encoding layer: union has 0 arms set, want exactly 1")
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes a tagged layer object: the Kind field selects the
// kind, and the object is decoded strictly into it, so a field from the
// wrong kind (or a typo) is an error rather than a silently dropped
// value. scanLayer reads a plainly written object, tag and fields, in
// one pass. Anything else, and every error, takes encoding/json: a probe
// of the tag, then a strict decode of the kind's wrapper, whose
// acceptance and error texts scanLayer's are checked against
// (FuzzLayerUnmarshal).
func (l *Layer) UnmarshalJSON(data []byte) error {
	if layer, ok := scanLayer(data); ok {
		*l = layer
		return nil
	}
	var probe struct {
		Kind LayerKind
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return fmt.Errorf("nn: decoding layer: %w", err)
	}
	return l.decodeArm(probe.Kind, data)
}

// decodeArm strictly decodes data into the wrapper of the kind it names.
func (l *Layer) decodeArm(kind LayerKind, data []byte) error {
	var w interface{ layer() Layer }
	switch kind {
	case KindConv:
		w = &convLayerJSON{}
	case KindFC:
		w = &fcLayerJSON{}
	case KindMixing:
		w = &mixingLayerJSON{}
	case KindAttention:
		w = &attentionLayerJSON{}
	case KindFFN:
		w = &ffnLayerJSON{}
	case "":
		return fmt.Errorf("nn: decoding layer: missing Kind tag (want %q, %q, %q, %q or %q)",
			KindConv, KindFC, KindMixing, KindAttention, KindFFN)
	default:
		return fmt.Errorf("nn: decoding layer: unknown Kind %q (want %q, %q, %q, %q or %q)",
			kind, KindConv, KindFC, KindMixing, KindAttention, KindFFN)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(w); err != nil {
		return fmt.Errorf("nn: decoding %s layer: %w", kind, err)
	}
	*l = w.layer()
	return nil
}

// The fields scanLayer reads, by their bit in its mask of seen fields.
const (
	fieldName = iota
	fieldInC
	fieldInH
	fieldInW
	fieldOutC
	fieldKH
	fieldKW
	fieldStride
	fieldPad
	fieldIn
	fieldOut
	fieldTokens
	fieldSeqLen
	fieldHidden
	fieldHeads
	fieldFFHidden
	fieldRepeat
	numFields
)

// fieldIndex maps each field's exact JSON key to its constant.
var fieldIndex = map[string]int{
	"Name": fieldName, "InC": fieldInC, "InH": fieldInH, "InW": fieldInW, "OutC": fieldOutC,
	"KH": fieldKH, "KW": fieldKW, "Stride": fieldStride, "Pad": fieldPad, "In": fieldIn,
	"Out": fieldOut, "Tokens": fieldTokens, "SeqLen": fieldSeqLen, "Hidden": fieldHidden,
	"Heads": fieldHeads, "FFHidden": fieldFFHidden, "Repeat": fieldRepeat,
}

// kindFields are the fields each kind's JSON object may carry besides Kind.
var kindFields = map[LayerKind]uint32{
	KindConv: 1<<fieldName | 1<<fieldInC | 1<<fieldInH | 1<<fieldInW | 1<<fieldOutC |
		1<<fieldKH | 1<<fieldKW | 1<<fieldStride | 1<<fieldPad | 1<<fieldRepeat,
	KindFC:        1<<fieldName | 1<<fieldIn | 1<<fieldOut | 1<<fieldTokens | 1<<fieldRepeat,
	KindMixing:    1<<fieldName | 1<<fieldSeqLen | 1<<fieldHidden | 1<<fieldRepeat,
	KindAttention: 1<<fieldName | 1<<fieldSeqLen | 1<<fieldHidden | 1<<fieldHeads | 1<<fieldRepeat,
	KindFFN:       1<<fieldName | 1<<fieldSeqLen | 1<<fieldHidden | 1<<fieldFFHidden | 1<<fieldRepeat,
}

// scanLayer decodes a layer object in one pass when it is written
// plainly: every key an exact field name of the tagged kind, or "Kind"
// under ASCII case folding (the tag, as encoding/json matches it); keys
// and strings without escapes, control or non-ASCII bytes; integers of at
// most nine digits; nothing after the object. Repeated keys keep their
// last value, as in encoding/json. ok is false for anything else, which
// UnmarshalJSON leaves to encoding/json.
func scanLayer(data []byte) (l Layer, ok bool) {
	var (
		kind LayerKind
		name string
		ints [numFields]int
		seen uint32
	)
	i := skipSpace(data, 0)
	if i == len(data) || data[i] != '{' {
		return l, false
	}
	for i = skipSpace(data, i+1); ; {
		key, end := plainString(data, i)
		if end < 0 {
			return l, false
		}
		if i = skipSpace(data, end); i == len(data) || data[i] != ':' {
			return l, false
		}
		i = skipSpace(data, i+1)
		if f, known := fieldIndex[string(key)]; f == fieldName || !known {
			var s []byte
			if s, i = plainString(data, i); i < 0 {
				return l, false
			}
			switch {
			case known:
				name = string(s)
				seen |= 1 << fieldName
			case isKindKey(key):
				kind = LayerKind(s)
			default:
				return l, false
			}
		} else {
			if ints[f], i = plainInt(data, i); i < 0 {
				return l, false
			}
			seen |= 1 << f
		}
		if i = skipSpace(data, i); i == len(data) {
			return l, false
		}
		if data[i] == '}' {
			break
		}
		if data[i] != ',' {
			return l, false
		}
		i = skipSpace(data, i+1)
	}
	if allowed, known := kindFields[kind]; !known || seen&^allowed != 0 || skipSpace(data, i+1) != len(data) {
		return l, false
	}
	switch kind {
	case KindConv:
		return NewConv(ConvLayer{Name: name, InC: ints[fieldInC], InH: ints[fieldInH], InW: ints[fieldInW],
			OutC: ints[fieldOutC], KH: ints[fieldKH], KW: ints[fieldKW], Stride: ints[fieldStride],
			Pad: ints[fieldPad], Repeat: ints[fieldRepeat]}), true
	case KindFC:
		return NewFC(FCLayer{Name: name, In: ints[fieldIn], Out: ints[fieldOut], Tokens: ints[fieldTokens],
			Repeat: ints[fieldRepeat]}), true
	case KindMixing:
		return NewMixing(MixingLayer{Name: name, SeqLen: ints[fieldSeqLen], Hidden: ints[fieldHidden],
			Repeat: ints[fieldRepeat]}), true
	case KindAttention:
		return NewAttention(AttentionLayer{Name: name, SeqLen: ints[fieldSeqLen], Hidden: ints[fieldHidden],
			Heads: ints[fieldHeads], Repeat: ints[fieldRepeat]}), true
	default:
		return NewFFN(FFNLayer{Name: name, SeqLen: ints[fieldSeqLen], Hidden: ints[fieldHidden],
			FFHidden: ints[fieldFFHidden], Repeat: ints[fieldRepeat]}), true
	}
}

// isKindKey reports whether key is "Kind" under ASCII case folding, the
// spellings encoding/json matches the tag field with. (A byte loop, not
// bytes.EqualFold: linking that in would shift the serial conv reference,
// dsp.CorrValid, whose speed depends on its placement in the binary.)
func isKindKey(key []byte) bool {
	return len(key) == 4 && key[0]|0x20 == 'k' && key[1]|0x20 == 'i' && key[2]|0x20 == 'n' && key[3]|0x20 == 'd'
}

// plainString returns the contents of the JSON string at data[i] and the
// index past its closing quote, or end -1 when there is no string there
// or it holds an escape, a control byte or a non-ASCII byte.
func plainString(data []byte, i int) (s []byte, end int) {
	if i >= len(data) || data[i] != '"' {
		return nil, -1
	}
	for j := i + 1; j < len(data); j++ {
		switch c := data[j]; {
		case c == '"':
			return data[i+1 : j], j + 1
		case c == '\\' || c < 0x20 || c >= 0x80:
			return nil, -1
		}
	}
	return nil, -1
}

// plainInt parses the JSON integer at data[i], -?(0|[1-9][0-9]*) of at
// most nine digits (so it fits an int everywhere), and returns the index
// past it, or end -1.
func plainInt(data []byte, i int) (v, end int) {
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	start := i
	for ; i < len(data) && data[i] >= '0' && data[i] <= '9'; i++ {
		v = 10*v + int(data[i]-'0')
	}
	if n := i - start; n == 0 || n > 9 || n > 1 && data[start] == '0' {
		return 0, -1
	}
	if neg {
		v = -v
	}
	return v, i
}

// skipSpace returns the index of the first non-whitespace byte at or
// after i.
func skipSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
		i++
	}
	return i
}

// ParseNetwork decodes a serialized network spec strictly — unknown
// fields, unknown layer kinds, and malformed unions are errors — and then
// validates it, so a Network obtained here is always evaluable.
func ParseNetwork(data []byte) (Network, error) {
	var n Network
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&n); err != nil {
		return Network{}, fmt.Errorf("nn: parsing network: %w", err)
	}
	if err := n.Validate(); err != nil {
		return Network{}, err
	}
	return n, nil
}

// NetworkJSON serializes a network spec with stable indentation — the
// canonical on-disk form (refocus-sim -dump-network emits it).
func NetworkJSON(n Network) ([]byte, error) {
	out, err := json.MarshalIndent(n, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("nn: encoding network %s: %w", n.Name, err)
	}
	return append(out, '\n'), nil
}

// CanonicalNetworkJSON returns the compact canonical encoding of a network
// spec. Struct fields marshal in declaration order with the Kind tag
// leading each layer, so the bytes are deterministic for a given value;
// incoming field ordering cannot leak through because callers hash the
// parsed struct, not the wire bytes. The layers are marshaled as their
// wrappers, the bytes Layer.MarshalJSON returns, without the second scan
// and compaction encoding/json gives every Marshaler's output.
func CanonicalNetworkJSON(n Network) ([]byte, error) {
	w := struct {
		Name   string
		Layers []any
	}{Name: n.Name}
	if n.Layers != nil {
		w.Layers = make([]any, len(n.Layers))
	}
	var v any = &w
	for i, l := range n.Layers {
		if w.Layers[i] = l.impl().tagged(); w.Layers[i] == nil {
			// The zero Layer: marshal the network itself, so the error is
			// encoding/json's, naming it.
			v = n
			break
		}
	}
	out, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("nn: canonical encoding of network %s: %w", n.Name, err)
	}
	return out, nil
}

// NetworkHash returns the SHA-256 hex digest of the canonical encoding —
// the stable identity of a workload for caching and deduplication, the
// twin of arch.ConfigHash.
func NetworkHash(n Network) (string, error) {
	data, err := CanonicalNetworkJSON(n)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// MustNetworkHash is NetworkHash for networks known to encode (registry
// entries, already-parsed specs); it panics on encoding failure.
func MustNetworkHash(n Network) string {
	h, err := NetworkHash(n)
	if err != nil {
		panic(err)
	}
	return h
}
