package sim

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"refocus/internal/arch"
	"refocus/internal/faults"
	"refocus/internal/nn"
)

// TestLoadConfigOverlay: a file with a Base preset only overrides the
// fields it spells out; everything else keeps the preset's values.
func TestLoadConfigOverlay(t *testing.T) {
	cfg, err := LoadConfig([]byte(`{"Base": "fb", "Name": "FB-M32", "M": 32}`))
	if err != nil {
		t.Fatal(err)
	}
	fb := arch.FB()
	if cfg.Name != "FB-M32" || cfg.M != 32 {
		t.Errorf("overrides not applied: %+v", cfg)
	}
	if cfg.NRFCU != fb.NRFCU || cfg.T != fb.T || cfg.Reuses != fb.Reuses || cfg.Buffer != fb.Buffer {
		t.Errorf("base preset fields lost: %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("overlaid config should validate: %v", err)
	}
}

// TestLoadConfigFullFile: a complete dumped config reloads identically
// without a Base.
func TestLoadConfigFullFile(t *testing.T) {
	fb := arch.FB()
	data, err := arch.ConfigJSON(fb)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadConfig(data)
	if err != nil {
		t.Fatal(err)
	}
	if cfg != fb {
		t.Errorf("reloaded config differs:\ngot  %+v\nwant %+v", cfg, fb)
	}
}

// TestLoadConfigErrors: malformed input, unknown Base presets, typo'd
// fields and missing files all come back as errors, never panics.
func TestLoadConfigErrors(t *testing.T) {
	cases := map[string]string{
		"malformed JSON":   `{"Base": `,
		"unknown base":     `{"Base": "warp-drive"}`,
		"unknown field":    `{"Base": "fb", "NRFCUU": 20}`,
		"wrong field type": `{"Base": "fb", "NRFCU": "many"}`,
	}
	for name, data := range cases {
		if _, err := LoadConfig([]byte(data)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := LoadConfigFile(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing file accepted")
	}
	// Incomplete design points parse fine but fail validation with a field
	// name — the pipeline's contract.
	cfg, err := LoadConfig([]byte(`{"Name": "incomplete", "NRFCU": 16}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err == nil {
		t.Error("incomplete config should fail validation")
	}
}

// TestResolveConfig: the file takes precedence over the preset name.
func TestResolveConfig(t *testing.T) {
	cfg, err := ResolveConfig("fb", "")
	if err != nil || cfg.Name != "ReFOCUS-FB" {
		t.Fatalf("preset resolve: %v, %+v", err, cfg)
	}
	path := filepath.Join(t.TempDir(), "point.json")
	if err := os.WriteFile(path, []byte(`{"Base": "ff", "Name": "from-file"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err = ResolveConfig("fb", path)
	if err != nil || cfg.Name != "from-file" {
		t.Fatalf("file resolve: %v, %+v", err, cfg)
	}
	if _, err := ResolveConfig("nope", ""); err == nil {
		t.Error("unknown preset accepted")
	}
}

// TestResolveDesignPoint: exactly one of preset or config names the
// design point.
func TestResolveDesignPoint(t *testing.T) {
	cfg, err := ResolveDesignPoint("fb", nil)
	if err != nil || cfg.Name != "ReFOCUS-FB" {
		t.Fatalf("preset resolve: %v, %+v", err, cfg)
	}
	cfg, err = ResolveDesignPoint("", []byte(`{"Base": "ff", "Name": "inline"}`))
	if err != nil || cfg.Name != "inline" {
		t.Fatalf("config resolve: %v, %+v", err, cfg)
	}
	for _, tc := range []struct {
		preset, config, want string
	}{
		{"fb", `{"Base": "ff"}`, "pick one"},
		{"", "", "must name a Preset"},
		{"nope", "", "nope"},
		{"", `{"Warp": 9}`, "Warp"},
	} {
		if _, err := ResolveDesignPoint(tc.preset, []byte(tc.config)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ResolveDesignPoint(%q, %q) = %v, want an error naming %q", tc.preset, tc.config, err, tc.want)
		}
	}
}

// TestResolveNetworks: single names, "all", and the unknown-name error.
func TestResolveNetworks(t *testing.T) {
	one, err := ResolveNetworks("ResNet-18")
	if err != nil || len(one) != 1 || one[0].Name != "ResNet-18" {
		t.Fatalf("single resolve: %v, %v", err, one)
	}
	all, err := ResolveNetworks("all")
	if err != nil || len(all) < 2 {
		t.Fatalf("all resolve: %v, %d networks", err, len(all))
	}
	for _, name := range []string{"resnet-18", "RESNET-18", "bert-BASE", "vit-b/16"} {
		if _, err := ResolveNetworks(name); err != nil {
			t.Errorf("ResolveNetworks(%q): %v", name, err)
		}
	}
	_, err = ResolveNetworks("LeNet-9000")
	if err == nil {
		t.Fatal("ResolveNetworks accepted LeNet-9000")
	}
	for _, want := range nn.Names() {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown network error %q does not list %q", err, want)
		}
	}
}

// TestResolveTarget: a job spec's design point resolves and validates
// before its workload, and the identity is the config's canonical hash
// plus the registry hashes, read without cloning a network.
func TestResolveTarget(t *testing.T) {
	if _, err := ResolveTarget("nope", nil, "LeNet"); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("bad preset and network: %v, want the preset error first", err)
	}
	if _, err := ResolveTarget("", []byte(`{"Base": "fb", "NRFCU": 0}`), "all"); err == nil {
		t.Error("an invalid design point resolved")
	}
	if _, err := ResolveTarget("fb", nil, "LeNet"); err == nil || !strings.Contains(err.Error(), "unknown network") {
		t.Errorf("unknown network: %v", err)
	}
	tg, err := ResolveTarget("fb", nil, "all")
	if err != nil {
		t.Fatal(err)
	}
	cfgHash, netHashes, err := tg.Identity()
	if err != nil {
		t.Fatal(err)
	}
	if want, err := arch.ConfigHash(arch.FB()); err != nil || cfgHash != want {
		t.Errorf("config hash %s, want %s (err %v)", cfgHash, want, err)
	}
	if want := nn.Hashes()[:5]; strings.Join(netHashes, ",") != strings.Join(want, ",") {
		t.Errorf("network hashes %v, want %v", netHashes, want)
	}
	if nets := tg.Clones(); len(nets) != 5 || nets[0].Name != "AlexNet" {
		t.Errorf("clones: %d networks", len(nets))
	}
}

// TestRunFaultSets: a degraded run announces its remapping; a zero fault
// set is the healthy machine, as on /v1/evaluate, and prints exactly the
// healthy output; a zero set is still validated.
func TestRunFaultSets(t *testing.T) {
	run := func(opts Options) (string, error) {
		opts.Preset, opts.Network = "fb", "ResNet-18"
		var buf bytes.Buffer
		err := Run(opts, &buf)
		return buf.String(), err
	}
	healthy, err := run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	none := filepath.Join(dir, "none.json")
	if err := os.WriteFile(none, []byte(`{"Name":"none"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := run(Options{FaultsFile: none}); err != nil || got != healthy {
		t.Errorf("zero fault set: err %v, output\n%s\nwant the healthy output\n%s", err, got, healthy)
	}
	degraded, err := run(Options{Faults: &faults.FaultSet{Name: "2dead", DeadRFCUs: []int{3, 11}}})
	if err != nil || !strings.Contains(degraded, "DEGRADED by 2dead: 14/16 healthy RFCUs") {
		t.Errorf("degraded run: err %v, output\n%s", err, degraded)
	}
	if _, err := run(Options{Faults: &faults.FaultSet{MaxDynamicRange: 0.5}}); err == nil {
		t.Error("an invalid zero fault set was accepted")
	}
	if _, err := run(Options{Faults: &faults.FaultSet{}, FaultsFile: none}); err == nil {
		t.Error("a fault set given both ways was accepted")
	}
}

// TestRunPipeline: the full resolve → override → validate → evaluate →
// render path, in both text and JSON, plus the error paths user input hits.
func TestRunPipeline(t *testing.T) {
	var buf bytes.Buffer
	err := Run(Options{Preset: "fb", Network: "ResNet-18"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{"config ReFOCUS-FB", "ResNet-18", "FPS/W"} {
		if !strings.Contains(text, want) {
			t.Errorf("text output missing %q:\n%s", want, text)
		}
	}

	buf.Reset()
	if err := Run(Options{Preset: "fb", Network: "ResNet-18", JSON: true}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"Config": "ReFOCUS-FB"`) {
		t.Errorf("JSON output missing config name:\n%s", buf.String())
	}

	buf.Reset()
	if err := Run(Options{Preset: "fb", Network: "ResNet-18", Profile: 3}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "hot layer") {
		t.Error("profile output missing hot layers")
	}

	// An override that breaks the config is caught by validation.
	err = Run(Options{
		Preset:   "fb",
		Network:  "ResNet-18",
		Override: func(c *arch.SystemConfig) { c.Reuses = 0 },
	}, &buf)
	if err == nil {
		t.Error("invalid override accepted")
	}

	if err := Run(Options{Preset: "nope", Network: "ResNet-18"}, &buf); err == nil {
		t.Error("unknown preset accepted")
	}
	if err := Run(Options{Preset: "fb", Network: "nope"}, &buf); err == nil {
		t.Error("unknown network accepted")
	}
}

// TestEvaluateResult: the structured pipeline returns the resolved
// config and one report per network, matching what Run renders.
func TestEvaluateResult(t *testing.T) {
	res, err := Evaluate(Options{Preset: "fb", Network: "all"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Config.Name != "ReFOCUS-FB" {
		t.Errorf("resolved config %q, want ReFOCUS-FB", res.Config.Name)
	}
	if len(res.Reports) != len(res.Networks) || len(res.Reports) < 2 {
		t.Fatalf("got %d reports for %d networks", len(res.Reports), len(res.Networks))
	}
	for i, r := range res.Reports {
		if r.Network != res.Networks[i].Name {
			t.Errorf("report %d is for %s, want %s", i, r.Network, res.Networks[i].Name)
		}
		if r.FPS <= 0 {
			t.Errorf("report %d has non-positive FPS", i)
		}
	}
	if _, err := Evaluate(Options{Preset: "nope", Network: "all"}); err == nil {
		t.Error("unknown preset accepted")
	}
}

// TestListKnown names every preset, every alias, and every benchmark.
func TestListKnown(t *testing.T) {
	var buf bytes.Buffer
	ListKnown(&buf)
	s := buf.String()
	for _, p := range arch.Presets() {
		if !strings.Contains(s, p.Name) {
			t.Errorf("listing missing preset %s", p.Name)
		}
		for _, a := range p.Aliases {
			if !strings.Contains(s, a) {
				t.Errorf("listing missing alias %s", a)
			}
		}
	}
	if !strings.Contains(s, "ResNet-50") || !strings.Contains(s, "all") {
		t.Error("listing missing networks")
	}
}
