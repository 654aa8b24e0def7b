// This file is the conv-engine workload: the functional JTC engine run
// directly (no HTTP) over every ResNet-50 registry conv entry, on the
// default spectrum-reuse path and on the per-pass serial path.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"time"

	"refocus/internal/jtc"
	"refocus/internal/nn"
	"refocus/internal/obs"
	"refocus/internal/tensor"
)

var convWorkload = workload{
	name:  "conv-engine",
	setup: setupConv,
}

const (
	// widthDivisor divides every entry's input and output channels
	// (spatial size, kernel and stride are kept), so one pass over the
	// network fits the run length many times.
	widthDivisor = 16
	// goldenSeed draws the fixed operands whose outputs the committed
	// digest pins; the timed operands come from the run's seed.
	goldenSeed = 0x601d
)

// convCase is one registry entry's operands.
type convCase struct {
	layer   nn.ConvLayer
	input   *tensor.Tensor // [C, H+2P, W+2P], already padded
	weights *tensor.Tensor // [F, C, K, K]
	macs    float64        // per call
}

// genOperands draws one seeded, non-negative operand set for every entry.
// Values are at least 0.05 of the maximum, so every weight quantizes to a
// nonzero level and the pass counts depend on shapes alone.
func genOperands(seed int64) []convCase {
	rng := rand.New(rand.NewSource(seed))
	fill := func(t *tensor.Tensor) *tensor.Tensor {
		for i := range t.Data {
			t.Data[i] = 0.05 + 0.95*rng.Float64()
		}
		return t
	}
	var cases []convCase
	for _, l := range convLayers() {
		c, f := max(1, l.InC/widthDivisor), max(1, l.OutC/widthDivisor)
		small := l
		small.InC, small.OutC, small.Repeat = c, f, 1
		cases = append(cases, convCase{
			layer:   l,
			input:   fill(tensor.New(c, l.InH+2*l.Pad, l.InW+2*l.Pad)),
			weights: fill(tensor.New(f, c, l.KH, l.KW)),
			macs:    small.MACs(),
		})
	}
	return cases
}

// convEnv is one set-up copy of the conv-engine workload.
type convEnv struct {
	r        *run
	cases    []convCase
	spectral *jtc.Engine
	serial   *jtc.Engine
}

func setupConv(r *run) (*instance, error) {
	cfg := jtc.DefaultEngineConfig()
	serialCfg := cfg
	serialCfg.DisableSpectrumReuse = true
	env := &convEnv{r: r, cases: genOperands(r.seed), spectral: jtc.NewEngine(cfg), serial: jtc.NewEngine(serialCfg)}
	// The golden pass: fixed operands, one call per entry on each path.
	// It warms the FFT plans and pins the engine's numerics: both paths
	// must agree bit for bit, and their outputs must hash to the
	// committed digest.
	p := r.phase("conv.golden")
	h := sha256.New()
	for _, c := range genOperands(goldenSeed) {
		a := env.spectral.Conv2D(c.input, c.weights, c.layer.Stride)
		b := env.serial.Conv2D(c.input, c.weights, c.layer.Stride)
		ok := bitIdentical(a, b)
		if !ok {
			r.mismatch("golden %s: spectral and serial outputs differ", c.layer.Name)
		}
		p.done(ok)
		hashTensor(h, b)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != committedConvDigest {
		r.mismatch("golden conv outputs hash to %s, want %s", got, committedConvDigest)
		p.done(false)
	}
	env.spectral.ResetStats()
	env.serial.ResetStats()
	return &instance{measure: env.measure, close: func() {}}, nil
}

// bitIdentical reports whether two tensors hold the same shape and the
// same float64 bits.
func bitIdentical(a, b *tensor.Tensor) bool {
	if len(a.Data) != len(b.Data) || fmt.Sprint(a.Shape) != fmt.Sprint(b.Shape) {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// hashTensor feeds a tensor's shape and float64 bits to h.
func hashTensor(h interface{ Write([]byte) (int, error) }, t *tensor.Tensor) {
	var buf [8]byte
	for _, d := range t.Shape {
		binary.LittleEndian.PutUint64(buf[:], uint64(d))
		h.Write(buf[:])
	}
	for _, v := range t.Data {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}

// measure runs passes over every entry (each entry Repeat times on the
// spectral path, then Repeat times on the serial path) until the run
// length is spent. Every spectral output must equal its serial twin bit
// for bit, and each pass's Engine.Stats must equal the committed counts.
func (e *convEnv) measure(rec *recorder, m map[string]float64) error {
	lane := rec.newLane(true)
	tag := "untraced"
	if rec != nil {
		tag = "traced"
	}
	p := e.r.phase("conv.calls." + tag)
	perEntry := map[string][]float64{}
	var lat []float64
	var specTime, serialTime time.Duration
	var specMACs, serialMACs float64
	var spectrumBank, filter time.Duration
	passes := 0
	var counted jtc.PassStats
	call := func(eng *jtc.Engine, c convCase) *tensor.Tensor {
		ctx := context.Background()
		var tr *obs.Trace
		var created time.Time
		if rec != nil {
			created, tr = time.Now(), obs.NewTrace()
			ctx = obs.WithTrace(ctx, tr)
		}
		start := time.Now()
		out := eng.Conv2DCtx(ctx, c.input, c.weights, c.layer.Stride)
		end := time.Now()
		if rec != nil {
			rec.add("perfbench.conv2d", lane, start, end)
			rec.foldObs(tr, created, lane)
			for _, ev := range tr.Events() {
				switch ev.Name {
				case "jtc.spectrum_bank":
					spectrumBank += ev.Dur
				case "jtc.filter":
					filter += ev.Dur
				}
			}
		}
		lat = append(lat, ms(end.Sub(start)))
		return out
	}
	// timed runs one call and records its wall and CPU time under key,
	// the entry's per-layer metric name.
	perEntryCPU := map[string][]float64{}
	timed := func(eng *jtc.Engine, c convCase, key string) (*tensor.Tensor, time.Duration) {
		t, cpu := time.Now(), cpuTime()
		out := call(eng, c)
		d := time.Since(t)
		perEntry[key] = append(perEntry[key], ms(d))
		perEntryCPU[key] = append(perEntryCPU[key], ms(cpuTime()-cpu))
		return out, d
	}
	from := time.Now()
	deadline := from.Add(e.r.length)
	var passRates []float64
	for passes == 0 || time.Now().Before(deadline) {
		// Each pass starts with the heap's free memory returned to the OS,
		// so the resident set size the pass reaches is its own and not
		// the highest any earlier pass left behind.
		debug.FreeOSMemory()
		passStart, callsBefore := time.Now(), len(lat)
		e.spectral.ResetStats()
		e.serial.ResetStats()
		for _, c := range e.cases {
			var spec *tensor.Tensor
			for i := 0; i < c.layer.Repeat; i++ {
				var d time.Duration
				spec, d = timed(e.spectral, c, "jtc."+c.layer.Name+".spectral_ms")
				specTime += d
				specMACs += c.macs
			}
			for i := 0; i < c.layer.Repeat; i++ {
				ser, d := timed(e.serial, c, "jtc."+c.layer.Name+".serial_ms")
				serialTime += d
				serialMACs += c.macs
				ok := bitIdentical(spec, ser)
				if !ok {
					e.r.mismatch("%s: spectral and serial outputs differ", c.layer.Name)
				}
				p.done(ok)
			}
		}
		for _, eng := range []*jtc.Engine{e.spectral, e.serial} {
			counted = eng.Stats()
			if counted != committedPassStats {
				e.r.mismatch("Engine.Stats per pass %+v, want %+v", counted, committedPassStats)
				p.done(false)
			}
		}
		passes++
		passRates = append(passRates, float64(len(lat)-callsBefore)/time.Since(passStart).Seconds())
	}
	rec.window(from, time.Now())
	// The end-to-end figures describe a pass made of each call at its
	// entry and path's fastTime: every call is a window of its own, so a
	// fast spell counts even when it is shorter than a pass.
	var fastLat []float64
	var fastCPU float64
	for _, c := range e.cases {
		for _, path := range []string{"spectral", "serial"} {
			key := "jtc." + c.layer.Name + "." + path + "_ms"
			for i := 0; i < c.layer.Repeat; i++ {
				fastLat = append(fastLat, fastTime(perEntry[key]))
				fastCPU += fastTime(perEntryCPU[key])
			}
		}
	}
	m["p50_ms"] = quantile(fastLat, 0.50)
	m["e2e.p99_ms"] = quantile(lat, 0.99)
	m["ops_per_cpu_s"] = float64(len(fastLat)) / (fastCPU / 1e3)
	m["e2e.ops_per_s"] = median(passRates)
	m["e2e.conv_mmacs_per_s"] = specMACs / 1e6 / specTime.Seconds()
	m["e2e.conv_serial_mmacs_per_s"] = serialMACs / 1e6 / serialTime.Seconds()
	if rec == nil {
		for k, v := range perEntry {
			m[k] = median(v)
		}
	} else {
		m["jtc.spectrum_bank_ms"] = ms(spectrumBank) / float64(passes)
		m["jtc.filter_ms"] = ms(filter) / float64(passes)
	}
	st := counted
	m["jtc.passes"] = float64(st.Passes)
	m["jtc.input_conversions"] = float64(st.InputConversions)
	m["jtc.weight_conversions"] = float64(st.WeightConversions)
	m["jtc.output_reads"] = float64(st.OutputReads)
	var total, pointwise, strided float64
	for _, c := range e.cases {
		w := c.macs * float64(c.layer.Repeat)
		total += w
		if c.layer.KH == 1 && c.layer.KW == 1 {
			pointwise += w
		}
		if c.layer.Stride > 1 {
			strided += w
		}
	}
	m["jtc.pointwise_mac_share"] = pointwise / total
	m["jtc.strided_mac_share"] = strided / total
	return nil
}
