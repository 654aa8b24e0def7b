package faults

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"refocus/internal/arch"
	"refocus/internal/buffers"
	"refocus/internal/nn"
	"refocus/internal/obs"
)

// MonteCarloModel parameterizes random fault sampling for yield sweeps:
// independent per-unit failures plus half-normal buffer-loss drift. The
// zero value draws no faults; Validate rejects out-of-range rates.
type MonteCarloModel struct {
	// RFCUFailProb is the independent probability each RFCU is dead.
	RFCUFailProb float64
	// WavelengthFailProb is the independent probability each
	// (RFCU, wavelength) laser line is dead.
	WavelengthFailProb float64
	// BufferLossSigmaDB scales the half-normal per-trip excess
	// delay-line loss: |N(0, σ²)| dB per trial.
	BufferLossSigmaDB float64
}

// Validate reports models whose rates are outside their domain.
func (m MonteCarloModel) Validate() error {
	if m.RFCUFailProb < 0 || m.RFCUFailProb > 1 {
		return fmt.Errorf("faults: RFCUFailProb %g outside [0,1]", m.RFCUFailProb)
	}
	if m.WavelengthFailProb < 0 || m.WavelengthFailProb > 1 {
		return fmt.Errorf("faults: WavelengthFailProb %g outside [0,1]", m.WavelengthFailProb)
	}
	if m.BufferLossSigmaDB < 0 {
		return fmt.Errorf("faults: BufferLossSigmaDB %g, must be >= 0", m.BufferLossSigmaDB)
	}
	return nil
}

// OrDefault returns m, or for the zero model the one robustness campaigns
// and yield-scored searches default to: 2% RFCU and 1% wavelength
// failure probability and a 0.5 dB buffer-loss σ.
func (m MonteCarloModel) OrDefault() MonteCarloModel {
	if m == (MonteCarloModel{}) {
		return MonteCarloModel{RFCUFailProb: 0.02, WavelengthFailProb: 0.01, BufferLossSigmaDB: 0.5}
	}
	return m
}

// Sample draws one fault set for the design point. The draw order is
// fixed (RFCUs, then every (RFCU, wavelength) pair, then the loss), so
// a given rng state always yields the same fault set.
func (m MonteCarloModel) Sample(rng *rand.Rand, cfg arch.SystemConfig) FaultSet {
	var f FaultSet
	for r := 0; r < cfg.NRFCU; r++ {
		if rng.Float64() < m.RFCUFailProb {
			f.DeadRFCUs = append(f.DeadRFCUs, r)
		}
	}
	for r := 0; r < cfg.NRFCU; r++ {
		for l := 0; l < cfg.NLambda; l++ {
			if rng.Float64() < m.WavelengthFailProb {
				if f.DeadWavelengths == nil {
					f.DeadWavelengths = make(map[int][]int)
				}
				f.DeadWavelengths[r] = append(f.DeadWavelengths[r], l)
			}
		}
	}
	if m.BufferLossSigmaDB > 0 {
		f.BufferExcessLossDB = math.Abs(rng.NormFloat64()) * m.BufferLossSigmaDB
	}
	return f
}

// Distribution summarizes a metric's spread over Monte Carlo trials.
type Distribution struct {
	// Mean is the arithmetic mean over trials.
	Mean float64
	// Min, P10, Median, P90 and Max are order statistics over trials.
	Min, P10, Median, P90, Max float64
}

// NewDistribution computes the summary of xs; it panics on an empty
// slice (callers guard on the surviving-trial count).
func NewDistribution(xs []float64) Distribution {
	if len(xs) == 0 {
		panic("faults: distribution of no samples")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var sum float64
	for _, x := range s {
		sum += x
	}
	q := func(p float64) float64 {
		i := int(p * float64(len(s)-1))
		return s[i]
	}
	return Distribution{
		Mean:   sum / float64(len(s)),
		Min:    s[0],
		P10:    q(0.10),
		Median: q(0.50),
		P90:    q(0.90),
		Max:    s[len(s)-1],
	}
}

// YieldResult is the outcome of a Monte Carlo yield sweep: how a fleet
// of imperfect chips performs relative to the nominal design point.
type YieldResult struct {
	// Trials is the number of chips sampled; Failed counts the ones
	// with no usable compute path at all (hard failures, excluded from
	// the distributions — an unusable chip has no throughput, not zero
	// throughput averaged in).
	Trials int
	Failed int
	// NominalFPS and NominalEnergy are the fault-free design point's
	// geomean throughput and energy per inference across the networks.
	NominalFPS    float64
	NominalEnergy float64
	// FPS and Energy summarize the surviving chips' geomean throughput
	// and energy per inference across the networks.
	FPS    Distribution
	Energy Distribution
}

// MetricEnergy extracts energy per inference for geomean aggregation.
var MetricEnergy arch.Metric = func(r arch.Report) float64 { return r.Energy }

// YieldSweep samples trials fault sets from the model and evaluates the
// degraded design point on every network, fanning trials out across
// arch.Parallelism() workers. Fault sets are drawn serially from a
// single seeded stream before any evaluation, so the result is
// deterministic for (cfg, nets, model, trials, seed) regardless of the
// worker count. Cancellation stops the sweep with ctx's error.
func YieldSweep(ctx context.Context, cfg arch.SystemConfig, nets []nn.Network, model MonteCarloModel, trials int, seed int64) (YieldResult, error) {
	if err := model.Validate(); err != nil {
		return YieldResult{}, err
	}
	if trials < 1 {
		return YieldResult{}, fmt.Errorf("faults: %d trials, need at least 1", trials)
	}
	if len(nets) == 0 {
		return YieldResult{}, fmt.Errorf("faults: yield sweep with no networks")
	}
	sweepSpan := obs.StartSpan(ctx, "faults.yield_sweep")
	sweepSpan.SetAttr("config", cfg.Name)
	sweepSpan.SetAttr("trials", trials)
	defer sweepSpan.End()
	nominal, _, err := EvaluateAllCtx(ctx, cfg, nil, nets)
	if err != nil {
		return YieldResult{}, err
	}
	res := YieldResult{
		Trials:        trials,
		NominalFPS:    arch.GeoMean(nominal, arch.MetricFPS),
		NominalEnergy: arch.GeoMean(nominal, MetricEnergy),
	}

	rng := rand.New(rand.NewSource(seed))
	sets := make([]FaultSet, trials)
	for i := range sets {
		sets[i] = model.Sample(rng, cfg)
		sets[i].Name = fmt.Sprintf("mc-%04d", i)
	}

	type trial struct {
		fps, energy float64
		failed      bool
		err         error
	}
	outcomes := make([]trial, trials)
	err = arch.ParallelFor(ctx, trials, func(ctx context.Context, i int) {
		trialSpan := obs.StartSpan(ctx, "faults.trial")
		trialSpan.SetAttr("trial", sets[i].Name)
		defer func() {
			trialSpan.SetAttr("hard_failure", outcomes[i].failed)
			trialSpan.End()
		}()
		reports, _, err := EvaluateAllCtx(ctx, cfg, &sets[i], nets)
		switch {
		case err == nil:
			outcomes[i] = trial{
				fps:    arch.GeoMean(reports, arch.MetricFPS),
				energy: arch.GeoMean(reports, MetricEnergy),
			}
		case errors.Is(err, ErrNothingRuns):
			outcomes[i] = trial{failed: true}
		default:
			outcomes[i] = trial{err: err}
		}
	})
	if err != nil {
		return YieldResult{}, err
	}

	var fps, energy []float64
	for _, o := range outcomes {
		if o.err != nil {
			return YieldResult{}, o.err
		}
		if o.failed {
			res.Failed++
			continue
		}
		fps = append(fps, o.fps)
		energy = append(energy, o.energy)
	}
	if len(fps) > 0 {
		res.FPS = NewDistribution(fps)
		res.Energy = NewDistribution(energy)
	}
	return res, nil
}

// ResiliencePoint is one sample of the R-vs-loss resilience curve: what
// the §4 split-ratio math sustains at a given excess buffer loss.
type ResiliencePoint struct {
	// ExcessLossDB is the injected per-trip loss beyond spec.
	ExcessLossDB float64
	// EffectiveReuses is the derated R (0 = buffer bypassed).
	EffectiveReuses int
	// RelativeLaserPower is the laser compensation at that R and loss
	// (1 when the buffer is bypassed).
	RelativeLaserPower float64
	// DynamicRange is the fresh-to-last-reuse signal ratio at that R.
	DynamicRange float64
}

// ResilienceCurve sweeps excess delay-line loss from 0 to maxLossDB in
// steps and reports the feedback buffer's derated reuse count, laser
// compensation and dynamic range at each point. The config must use the
// feedback buffer (the design whose R the loss bounds).
func ResilienceCurve(cfg arch.SystemConfig, maxLossDB float64, steps int) ([]ResiliencePoint, error) {
	if cfg.Buffer != arch.Feedback {
		return nil, fmt.Errorf("faults: resilience curve needs a feedback-buffer config, got %v", cfg.Buffer)
	}
	if steps < 2 || maxLossDB <= 0 {
		return nil, fmt.Errorf("faults: resilience curve needs maxLossDB > 0 and at least 2 steps")
	}
	out := make([]ResiliencePoint, steps)
	for i := range out {
		loss := maxLossDB * float64(i) / float64(steps-1)
		fs := FaultSet{Name: "resilience", BufferExcessLossDB: loss}
		eff, deg, err := fs.Degrade(cfg)
		if err != nil {
			return nil, err
		}
		p := ResiliencePoint{
			ExcessLossDB:       loss,
			EffectiveReuses:    deg.EffectiveReuses,
			RelativeLaserPower: 1,
			DynamicRange:       1,
		}
		if deg.EffectiveBuffer == arch.Feedback {
			b, err := buffers.NewFeedbackBuffer(buffers.OptimalFeedbackAlpha(deg.EffectiveReuses), cfg.M, eff.Components)
			if err != nil {
				return nil, err
			}
			p.RelativeLaserPower = b.RelativeLaserPower(deg.EffectiveReuses)
			p.DynamicRange = b.DynamicRange(deg.EffectiveReuses)
		}
		out[i] = p
	}
	return out, nil
}
