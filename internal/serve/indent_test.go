package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzAppendIndent: for any valid JSON, appendIndent of its compact form
// is json.Indent's output with prefix "" and indent "  ", with or without
// the newline json.Encoder ends a value with.
func FuzzAppendIndent(f *testing.F) {
	for _, s := range []string{`{}`, `[]`, `[{},[],{"a":[]}]`, `"s"`, `-1.5e-7`, `null`,
		`{"a\"{[,:]}":"\\\"","b":[true,false,null,{"c":{"d":[1,2,[3]]}}]}`,
		`{" <&>":"😀é"}`} {
		f.Add([]byte(s))
	}
	fixtures, _ := filepath.Glob(filepath.Join("testdata", "responses", "*.json"))
	for _, name := range fixtures {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if !json.Valid(data) {
			return
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, data); err != nil {
			t.Fatal(err)
		}
		for _, src := range [][]byte{compact.Bytes(), append(compact.Bytes(), '\n')} {
			var want bytes.Buffer
			if err := json.Indent(&want, src, "", "  "); err != nil {
				t.Fatal(err)
			}
			if got := appendIndent([]byte("prior"), src); !bytes.Equal(got, append([]byte("prior"), want.Bytes()...)) {
				t.Fatalf("appendIndent(%q):\n got %q\nwant %q", src, got[len("prior"):], want.Bytes())
			}
		}
	})
}

// TestAppendIndentDeepNesting: indentation past the width of the spaces
// constant repeats it.
func TestAppendIndentDeepNesting(t *testing.T) {
	src := bytes.Repeat([]byte("["), 70)
	src = append(append(src, '1'), bytes.Repeat([]byte("]"), 70)...)
	var want bytes.Buffer
	if err := json.Indent(&want, src, "", "  "); err != nil {
		t.Fatal(err)
	}
	if got := appendIndent(nil, src); !bytes.Equal(got, want.Bytes()) {
		t.Errorf("got %q\nwant %q", got, want.Bytes())
	}
}
