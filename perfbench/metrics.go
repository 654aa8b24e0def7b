// This file names every metric the benchmark prints, with its unit, and
// computes the modeled-machine block every workload reports.
package main

import (
	"fmt"
	"io"

	"refocus/internal/arch"
	"refocus/internal/dataflow"
	"refocus/internal/nn"
	"refocus/internal/paper"
)

// metricDef is one printed metric: its name and unit.
type metricDef struct {
	name string
	unit string
}

// endToEnd is the set an untraced run prints. Every workload measures
// each of them on its own operation (README.md, "End-to-end metrics").
// Throughput is counted per second of the process's CPU time, which
// excludes the CPU the hypervisor steals from the VM; the wall-clock rate
// (e2e.ops_per_s) and the p99 of each operation (e2e.p99_ms) are printed
// with the per-layer set, because on a shared 2-core VM they track that
// steal more than the program (README.md, "Noise").
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"ops_per_cpu_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// isEndToEnd reports whether name is an end-to-end metric.
func isEndToEnd(name string) bool {
	for _, d := range endToEnd {
		if d.name == name {
			return true
		}
	}
	return false
}

// convLayers are the ResNet-50 registry conv entries the conv-engine
// workload runs, in registry order.
func convLayers() []nn.ConvLayer {
	return nn.ResNet50().ConvLayers()
}

// perLayer is the set a traced run prints. A layer a workload does not
// exercise did no work there and reads 0.
func perLayer() []metricDef {
	defs := []metricDef{
		{"e2e.evaluate_max_rps", "1/s"},
		{"e2e.sweep_points_per_s", "1/s"},
		{"e2e.optimize_points_per_s", "1/s"},
		{"e2e.conv_mmacs_per_s", "MMAC/s"},
		{"e2e.conv_serial_mmacs_per_s", "MMAC/s"},
		{"e2e.failed_ratio", "ratio"},
		{"e2e.p99_ms", "ms"},
		{"e2e.ops_per_s", "1/s"},

		{"serve.resolve_us", "us"},
		{"serve.cache_lookup_us", "us"},
		{"serve.queue_wait_us", "us"},
		{"serve.evaluate_us", "us"},
		{"serve.encode_us", "us"},
		{"serve.outside_handler_us", "us"},
		{"serve.cache_hit_ratio", "ratio"},
		{"serve.evaluations", "count"},
		{"serve.shed", "count"},
		{"serve.resp_bytes", "B"},

		{"nn.network_hash_us", "us"},
		{"nn.parse_network_us", "us"},
		{"arch.config_hash_us", "us"},
		{"arch.evaluate_us", "us"},
		{"faults.degrade_us", "us"},

		{"cluster.dispatch_us", "us"},
		{"cluster.hedges", "count"},
		{"cluster.failovers", "count"},
		{"cluster.point_errors", "count"},
		{"cluster.shard_skew", "ratio"},
		{"serveclient.retries", "count"},
		{"serveclient.shed", "count"},

		{"store.disk_writes", "count"},
		{"store.disk_bytes", "B"},
		{"store.disk_hits", "count"},

		{"opt.eval_ms", "ms"},
		{"opt.self_ms", "ms"},
		{"opt.checkpoint_kb", "KB"},
		{"opt.points_executed", "count"},
		{"opt.points_infeasible", "count"},
		{"opt.front_size", "count"},
		{"opt.hypervolume", "1"},
	}
	for _, l := range convLayers() {
		defs = append(defs, metricDef{"jtc." + l.Name + ".spectral_ms", "ms"})
	}
	for _, l := range convLayers() {
		defs = append(defs, metricDef{"jtc." + l.Name + ".serial_ms", "ms"})
	}
	defs = append(defs,
		metricDef{"jtc.spectrum_bank_ms", "ms"},
		metricDef{"jtc.filter_ms", "ms"},
		metricDef{"jtc.passes", "count"},
		metricDef{"jtc.input_conversions", "count"},
		metricDef{"jtc.weight_conversions", "count"},
		metricDef{"jtc.output_reads", "count"},
		metricDef{"jtc.pointwise_mac_share", "ratio"},
		metricDef{"jtc.strided_mac_share", "ratio"},
	)
	for _, m := range modelDefs {
		defs = append(defs, metricDef{m.name, m.unit})
	}
	defs = append(defs,
		metricDef{"loadgen.late_p99_ms", "ms"},
		metricDef{"loadgen.backlog_max", "count"},
	)
	for _, rate := range ladder {
		defs = append(defs, metricDef{fmt.Sprintf("loadgen.p99_ms.rate-%d", rate), "ms"})
	}
	defs = append(defs,
		metricDef{"input.cache_repeat_share", "ratio"},
		metricDef{"obs.trace_overhead_pct", "%"},
	)
	return defs
}

// modelDef is one modeled-machine statistic with the paper's figure
// where the paper gives one.
type modelDef struct {
	name  string
	unit  string
	paper float64 // 0 when the paper prints no number for it
}

var modelDefs = []modelDef{
	{"model.resnet50_fb.cycles", "cycles", 0},
	{"model.resnet50_fb.adc_reads", "count", 0},
	{"model.resnet50_fb.input_dac_writes", "count", 0},
	{"model.resnet50_fb.weight_dac_writes", "count", 0},
	{"model.resnet50_fb.energy_mj", "mJ", 0},
	{"model.bert_base_fb.cycles", "cycles", 0},
	{"model.bert_base_fb.energy_mj", "mJ", 0},
	{"model.fig11.fps_x", "x", 2},
	{"model.fig11.fps_per_w_x", "x", 2.2},
	{"model.fig11.fps_per_mm2_x", "x", 1.36},
}

// modelMetrics fills the modeled-machine block: simulated statistics of
// ReFOCUS-FB from the analytical model (dataflow event counts and
// arch.Evaluate energy) and the Figure 11 ratios against PhotoFourier.
// They depend on no seed and no timing, so they repeat exactly.
func modelMetrics(m map[string]float64) {
	fb := arch.FB()
	df := fb.DataflowConfig()
	df.InputsFromDRAM = true // as arch.Evaluate charges the first layer
	for _, w := range []struct {
		key string
		net nn.Network
	}{{"resnet50_fb", nn.ResNet50()}, {"bert_base_fb", nn.BERTBase()}} {
		ev := dataflow.MustNetworkEvents(w.net, df)
		rep := arch.MustEvaluate(fb, w.net)
		m["model."+w.key+".cycles"] = ev.Cycles
		m["model."+w.key+".energy_mj"] = rep.Energy * 1e3
		if w.key == "resnet50_fb" {
			m["model.resnet50_fb.adc_reads"] = ev.ADCReads
			m["model.resnet50_fb.input_dac_writes"] = ev.InputDACWrites
			m["model.resnet50_fb.weight_dac_writes"] = ev.WeightDACWrites
		}
	}
	f11 := paper.Figure11()
	m["model.fig11.fps_x"] = f11.Ratio("FPS", true)
	m["model.fig11.fps_per_w_x"] = f11.Ratio("FPS/W", true)
	m["model.fig11.fps_per_mm2_x"] = f11.Ratio("FPS/mm²", true)
}

// printModel prints the modeled block beside the paper's figures.
func printModel(w io.Writer, m map[string]float64) {
	fmt.Fprintln(w, "modeled machine (simulated, not host time; the only reference is the paper's own simulator, so the model is unvalidated against hardware):")
	for _, d := range modelDefs {
		line := fmt.Sprintf("  %-38s %16.8g %s", d.name, m[d.name], d.unit)
		if d.paper != 0 {
			line += fmt.Sprintf("   paper %gx", d.paper)
		}
		fmt.Fprintln(w, line)
	}
}
