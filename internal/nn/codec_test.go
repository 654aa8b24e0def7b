package nn

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// probeLayer is the encoding/json route Layer.UnmarshalJSON falls back
// to, and the reference its byte scan must match: a probe of the tag,
// then the strict decode of that kind.
func probeLayer(data []byte) (Layer, error) {
	var probe struct {
		Kind LayerKind
	}
	var l Layer
	if err := json.Unmarshal(data, &probe); err != nil {
		return l, fmt.Errorf("nn: decoding layer: %w", err)
	}
	return l, l.decodeArm(probe.Kind, data)
}

// layerSeeds are layer objects the probe and the byte scan must read
// alike: plain ones, and the spellings the scan leaves to the probe.
var layerSeeds = []string{
	`{"Kind":"conv","Name":"c","InC":3,"InH":8,"InW":8,"OutC":4,"KH":3,"KW":3,"Stride":1,"Pad":1,"Repeat":1}`,
	` { "Repeat" : 2 , "Out" : 10 , "In" : 64 , "Tokens" : 1 , "Name" : "head" , "Kind" : "fc" } `,
	`{"kind":"ffn","Name":"f","SeqLen":4,"Hidden":8,"FFHidden":16,"Repeat":1}`,
	`{"KIND":"attention","Name":"a","SeqLen":4,"Hidden":8,"Heads":2,"Repeat":1}`,
	`{"Kind":"conv","Kind":"fourier-mixing","Name":"m","SeqLen":4,"Hidden":4,"Repeat":1}`,
	`{"Kind":"fc","Kind":null,"Name":"f","In":1,"Out":1,"Tokens":1,"Repeat":1}`,
	`{"\u004bind":"fc","Name":"f","In":1,"Out":1,"Tokens":1,"Repeat":1}`,
	"{\"\u212aind\":\"fc\",\"Name\":\"f\",\"In\":1,\"Out\":1,\"Tokens\":1,\"Repeat\":1}",
	`{"Kind":"f\u0063","Name":"f","In":1,"Out":1,"Tokens":1,"Repeat":1}`,
	`{"Name":{"Kind":"fc"},"Kind":"conv"}`,
	`{"Name":"a\"}{","Kind":"fc","In":[1,{"x":"]"}],"Out":1}`,
	`{"Kind":"fc","Name":"f","In":1,"Out":1,"Tokens":1,"Repeat":1} x`,
	`{"Kind":"fc","Name":"f","In":1,"Out":1,"Tokens":1,"Repeat":1}}`,
	`{"Kind":"fc","Name":"f","In":1`,
	`{"Kind":"fc","Name":"f","In":1,}`,
	`{"Kind":"fc","Name":"f","In":,"Out":1}`,
	`{"Kind":5}`, `{"Kind":"pool"}`, `{}`, `{"Name":"x"}`, `null`, `[]`, `"conv"`, ``,
	`{"Kind":"conv","Name":"c","KH":3,"Out":1}`,
	`{"Kind":"fc","Name":"f","In":1.5}`,
}

// FuzzLayerUnmarshal: for any bytes, Layer.UnmarshalJSON accepts what the
// probe accepted, decodes the same layer and fails with the same text;
// and a decoded layer's canonical encoding is json.Marshal's.
func FuzzLayerUnmarshal(f *testing.F) {
	for _, s := range layerSeeds {
		f.Add([]byte(s))
	}
	for _, e := range registry() {
		for _, l := range e.Layers {
			data, err := json.Marshal(l)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got Layer
		gotErr := got.UnmarshalJSON(data)
		want, wantErr := probeLayer(data)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s:\n got %+v, %v\nwant %+v, %v", data, got, gotErr, want, wantErr)
		}
		if gotErr != nil {
			return
		}
		net := Network{Name: got.Name(), Layers: []Layer{got}}
		canon, err := CanonicalNetworkJSON(net)
		if err != nil {
			t.Fatal(err)
		}
		if want, err := json.Marshal(net); err != nil || !bytes.Equal(canon, want) {
			t.Fatalf("canonical bytes differ from json.Marshal's:\n%s\n%s (%v)", canon, want, err)
		}
	})
}

// TestCanonicalMatchesMarshal: CanonicalNetworkJSON writes json.Marshal's
// bytes (through Layer.MarshalJSON) for every registry network, for names
// encoding/json escapes, for no layers and nil layers. For the zero
// Layer both fail, with encoding/json's error text.
func TestCanonicalMatchesMarshal(t *testing.T) {
	nets := Networks()
	for _, name := range []string{"", `q"uote\ <b>&`, "tab\tnl\n", "é ü", "\u2028\u2029", "bad\xffutf8", "\x7f"} {
		nets = append(nets, Network{Name: name, Layers: []Layer{NewFC(FCLayer{Name: name, In: 1, Out: 2, Tokens: 3, Repeat: 4})}})
	}
	nets = append(nets, Network{Name: "empty", Layers: []Layer{}}, Network{Name: "nil"})
	for _, n := range nets {
		got, err := CanonicalNetworkJSON(n)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(n)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%q:\n got %s\nwant %s", n.Name, got, want)
		}
	}
	bad := Network{Name: "bad", Layers: []Layer{NewFC(FCLayer{Name: "f", In: 1, Out: 1, Tokens: 1, Repeat: 1}), {}}}
	_, err := CanonicalNetworkJSON(bad)
	_, merr := json.Marshal(bad)
	if want := "nn: canonical encoding of network bad: json: error calling MarshalJSON for type nn.Layer: " +
		"nn: encoding layer: union has 0 arms set, want exactly 1"; fmt.Sprint(err) != want || !strings.HasSuffix(want, fmt.Sprint(merr)) {
		t.Errorf("zero Layer: %v / %v, want %s", err, merr, want)
	}
}

// inlineSpec is shaped like the inline specs of the repository
// benchmark's evaluate workload: four conv layers and a classifier.
const inlineSpec = `{"Name":"inline-3","Layers":[
{"Kind":"conv","Name":"conv0","InC":3,"InH":112,"InW":112,"OutC":32,"KH":3,"KW":3,"Stride":2,"Pad":1,"Repeat":1},
{"Kind":"conv","Name":"conv1","InC":32,"InH":56,"InW":56,"OutC":64,"KH":1,"KW":1,"Stride":1,"Pad":0,"Repeat":2},
{"Kind":"conv","Name":"conv2","InC":64,"InH":56,"InW":56,"OutC":128,"KH":5,"KW":5,"Stride":2,"Pad":2,"Repeat":1},
{"Kind":"conv","Name":"conv3","InC":128,"InH":28,"InW":28,"OutC":16,"KH":3,"KW":3,"Stride":1,"Pad":1,"Repeat":2},
{"Kind":"fc","Name":"fc","In":12544,"Out":10,"Tokens":1,"Repeat":1}]}`

// hashSink keeps the benchmarks' results live.
var hashSink string

// BenchmarkParseNetwork times the strict parse of an inline spec shaped
// like the evaluate workload's.
func BenchmarkParseNetwork(b *testing.B) {
	data := []byte(inlineSpec)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n, err := ParseNetwork(data)
		if err != nil {
			b.Fatal(err)
		}
		hashSink = n.Name
	}
}

// BenchmarkNetworkHash times the canonical hash of that inline spec and
// of ResNet-50.
func BenchmarkNetworkHash(b *testing.B) {
	inline, err := ParseNetwork([]byte(inlineSpec))
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		net  Network
	}{{"Inline", inline}, {"ResNet50", ResNet50()}} {
		n := bc.net
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h, err := NetworkHash(n)
				if err != nil {
					b.Fatal(err)
				}
				hashSink = h
			}
		})
	}
}
