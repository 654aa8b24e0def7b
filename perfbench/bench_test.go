package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// tinyRun runs one short invocation in dir and decodes its result line.
func tinyRun(t *testing.T, workload string, seed int64, trace int) result {
	t.Helper()
	var out bytes.Buffer
	code := benchMain([]string{"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", "0.3", "--trace", fmt.Sprint(trace)}, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if code != 0 {
		t.Fatalf("%s seed %d trace %d exited %d:\n%s", workload, seed, trace, code, out.String())
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", workload, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// TestSmoke runs every workload briefly, untraced and traced: each run
// must print exactly the metrics BENCHMARK.json names, with their units.
// A second seed must leave the modeled statistics and the jtc counts
// unchanged.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var specNames []string
	for _, w := range spec.Workloads {
		specNames = append(specNames, w.Name)
	}
	if !reflect.DeepEqual(names, specNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", specNames, names)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd) //nolint:errcheck // best effort; the test binary exits next

	traced := map[string]result{}
	for _, w := range spec.Workloads {
		for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
			res := tinyRun(t, w.Name, 1, trace)
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: printed %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %d: metric %s printed as %+v (present %v), want unit %s", w.Name, trace, m.Name, got, ok, m.Unit)
				}
			}
			if trace == 1 {
				traced[w.Name] = res
			}
		}
	}

	other := tinyRun(t, "conv-engine", 2, 1)
	for name, m := range traced["conv-engine"].Metrics {
		fixed := strings.HasPrefix(name, "model.") || name == "jtc.passes" ||
			strings.HasSuffix(name, "_conversions") || name == "jtc.output_reads"
		if fixed && other.Metrics[name] != m {
			t.Errorf("%s changed with the seed: %v then %v", name, m.Value, other.Metrics[name].Value)
		}
	}
}

// TestSeedChangesInputs checks that the seed, and only the seed, drives
// the generated request mix, sweep points and conv operands.
func TestSeedChangesInputs(t *testing.T) {
	bodies := func(seed int64) []string {
		items, err := genPopulation(seed)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, it := range items[:200] {
			out = append(out, string(it.body))
		}
		return out
	}
	if !reflect.DeepEqual(bodies(3), bodies(3)) {
		t.Error("the same seed drew different evaluate requests")
	}
	if reflect.DeepEqual(bodies(3), bodies(4)) {
		t.Error("another seed drew the same evaluate requests")
	}
	if reflect.DeepEqual(genSequence(3, 1000, 500), genSequence(4, 1000, 500)) {
		t.Error("another seed drew the same request order")
	}
	sweep := func(seed int64) []string {
		items, err := genSweep(seed, 32)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, it := range items {
			out = append(out, string(it.req.Overrides)+it.req.Network)
		}
		return out
	}
	if reflect.DeepEqual(sweep(3), sweep(4)) {
		t.Error("another seed drew the same sweep points")
	}
	a, b := genOperands(3), genOperands(4)
	if reflect.DeepEqual(a[0].input.Data, b[0].input.Data) || reflect.DeepEqual(a[0].weights.Data, b[0].weights.Data) {
		t.Error("another seed drew the same conv operands")
	}
	if !reflect.DeepEqual(a[5].input.Shape, b[5].input.Shape) {
		t.Error("the seed changed an operand shape")
	}
}
