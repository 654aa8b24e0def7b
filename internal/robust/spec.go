// Package robust runs device-in-the-loop robustness campaigns: seeded
// Monte Carlo fleets of manufactured ReFOCUS chips, each trial sampling
// fabrication faults (internal/faults), degrading the design point,
// measuring the degraded machine's throughput with the same bottom-up
// evaluator the healthy numbers come from, and evaluating — optionally
// retraining — the §7.2 reference network through that device's noise
// model (internal/noise). The output is the accuracy-vs-yield-vs-
// throughput frontier per fault-severity level: the answer to "does a
// *manufactured* ReFOCUS keep working", which no single-trial evaluation
// can give.
//
// Campaigns are long-running jobs with a full lifecycle: durable JSON
// checkpoints written atomically after every trial (resumable after
// SIGKILL with completed trials skipped), per-trial seeds derived purely
// from (campaign seed, severity index, trial index) so results are
// byte-identical regardless of execution order, worker count or how many
// times the campaign was interrupted, incumbent streaming as frontier
// points refresh, and context cancellation threaded through every trial.
// The serving layer (internal/serve, internal/cluster) exposes this as
// POST /v1/robustness.
package robust

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"refocus/internal/arch"
	"refocus/internal/faults"
	"refocus/internal/nn"
	"refocus/internal/sim"
)

// DeviceModel parameterizes the per-trial analog datapath the reference
// network is evaluated through, at severity 1. Every field scales
// linearly with a trial's severity multiplier, so severity 0 is a clean
// digital datapath and severity 2 a device twice as far out of spec.
type DeviceModel struct {
	// FixedPatternSigma is the per-detector gain mismatch σ of the
	// device's fixed calibration pattern (noise.FixedPatternCorrelator).
	FixedPatternSigma float64
	// ReadSigma, ShotCoeff and RINSigma are the stochastic detector
	// noise model (optics.NoiseModel): additive read noise, signal-
	// proportional shot noise and relative intensity noise.
	ReadSigma float64
	ShotCoeff float64
	RINSigma  float64
}

// TaskSpec sizes the §7.2 reference task and training loop. The defaults
// are deliberately small — a campaign runs hundreds of trials and each
// retraining trial pays TrainSamples × Epochs forward/backward passes
// through the JTC engine.
type TaskSpec struct {
	// Classes and Size shape the confusable prototype task (Size must be
	// a multiple of 4 for the net's two 2×2 pools).
	Classes int
	Size    int
	// TrainSamples and TestSamples split the dataset.
	TrainSamples int
	TestSamples  int
	// Epochs and LearningRate drive SGD for the clean reference net and
	// for every per-trial retraining pass.
	Epochs       int
	LearningRate float64
}

// Spec describes one robustness campaign: a design point, a workload, a
// fault model with a severity grid, and the trial budget. Identical specs
// (after defaulting) share one campaign ID, so resubmitting a spec after
// a restart attaches to the existing checkpoint instead of starting over.
type Spec struct {
	// Name labels the campaign in reports; it is part of the identity, so
	// two otherwise equal specs with different names are separate
	// campaigns.
	Name string `json:",omitempty"`
	// Preset is a design-point registry name or alias ("fb", ...).
	// Exactly one of Preset or Config must be set.
	Preset string `json:",omitempty"`
	// Config is a design point in the -config-file schema.
	Config json.RawMessage `json:",omitempty"`
	// Network is a registered workload name (case-insensitive) or "all";
	// empty defaults to "ResNet-18". Trial throughput is the geomean FPS
	// across the resolved networks, mirroring the yield sweeps.
	Network string `json:",omitempty"`
	// Model is the Monte Carlo fault model at severity 1. The zero value
	// gets a small default (2% RFCU, 1% wavelength, 0.5 dB loss σ);
	// scaled per severity by ScaledModel.
	Model faults.MonteCarloModel
	// Severities are the fault-model multipliers forming the frontier's
	// x-axis; empty defaults to [0, 0.5, 1]. Probabilities clamp at 1.
	Severities []float64 `json:",omitempty"`
	// Trials is the number of sampled chips per severity level; 0
	// defaults to 16.
	Trials int `json:",omitempty"`
	// Seed is the campaign's root seed: per-trial seeds mix it with the
	// severity and trial indices (TrialSeed), never with wall-clock or
	// execution order.
	Seed int64
	// Retrain additionally retrains the reference net through each
	// trial's device model (straight-through gradients) and reports the
	// recovered accuracy distribution — the §7.2 compensation experiment
	// run across a manufactured fleet.
	Retrain bool `json:",omitempty"`
	// Device is the analog datapath model at severity 1 (zero fields get
	// defaults; see DeviceModel).
	Device DeviceModel
	// Task sizes the reference task (zero fields get defaults).
	Task TaskSpec
}

// Default campaign knobs, applied by WithDefaults.
const (
	// DefaultNetwork is the workload a spec evaluates when none is named.
	DefaultNetwork = "ResNet-18"
	// DefaultTrials is the per-severity chip count when Trials is 0.
	DefaultTrials = 16
)

// maxima bounding user-submitted campaign specs: a campaign is heavy
// compute, so the serving tier refuses budgets past these instead of
// grinding for hours.
const (
	maxTrials     = 10000
	maxSeverities = 64
)

// WithDefaults returns the spec with every unset field filled in. Start
// and ID always operate on the defaulted form, so a spec naming only a
// preset and a seed is a complete campaign description.
func (s Spec) WithDefaults() Spec {
	if s.Network == "" {
		s.Network = DefaultNetwork
	}
	var zeroModel faults.MonteCarloModel
	if s.Model == zeroModel {
		s.Model = faults.MonteCarloModel{RFCUFailProb: 0.02, WavelengthFailProb: 0.01, BufferLossSigmaDB: 0.5}
	}
	if len(s.Severities) == 0 {
		s.Severities = []float64{0, 0.5, 1}
	}
	if s.Trials == 0 {
		s.Trials = DefaultTrials
	}
	if s.Device == (DeviceModel{}) {
		s.Device = DeviceModel{FixedPatternSigma: 0.3, ReadSigma: 0.05, RINSigma: 0.05}
	}
	t := &s.Task
	if t.Classes == 0 {
		t.Classes = 4
	}
	if t.Size == 0 {
		t.Size = 8
	}
	if t.TrainSamples == 0 {
		t.TrainSamples = 64
	}
	if t.TestSamples == 0 {
		t.TestSamples = 32
	}
	if t.Epochs == 0 {
		t.Epochs = 10
	}
	if t.LearningRate == 0 {
		t.LearningRate = 0.05
	}
	return s
}

// Validate reports specs that cannot run. It resolves the design point
// and workload eagerly, so a bad preset or network name fails at submit
// time, not trials deep into the campaign. Call on the defaulted form.
func (s Spec) Validate() error {
	if _, err := s.ResolveConfig(); err != nil {
		return err
	}
	if _, err := s.ResolveNetworks(); err != nil {
		return err
	}
	if err := s.Model.Validate(); err != nil {
		return err
	}
	if s.Trials < 1 || s.Trials > maxTrials {
		return fmt.Errorf("robust: Trials %d outside [1,%d]", s.Trials, maxTrials)
	}
	if len(s.Severities) > maxSeverities {
		return fmt.Errorf("robust: %d severity levels, max %d", len(s.Severities), maxSeverities)
	}
	for i, sev := range s.Severities {
		if math.IsNaN(sev) || math.IsInf(sev, 0) || sev < 0 {
			return fmt.Errorf("robust: severity[%d] = %g, must be finite and >= 0", i, sev)
		}
	}
	d := s.Device
	if d.FixedPatternSigma < 0 || d.ReadSigma < 0 || d.ShotCoeff < 0 || d.RINSigma < 0 {
		return errors.New("robust: Device noise parameters must be >= 0")
	}
	t := s.Task
	if t.Classes < 2 {
		return fmt.Errorf("robust: Task.Classes %d, need at least 2", t.Classes)
	}
	if t.Size < 4 || t.Size%4 != 0 {
		return fmt.Errorf("robust: Task.Size %d, must be a positive multiple of 4", t.Size)
	}
	if t.TrainSamples < 1 || t.TestSamples < 1 {
		return errors.New("robust: Task needs at least 1 train and 1 test sample")
	}
	if t.TrainSamples > 4096 || t.TestSamples > 4096 || t.Size > 64 || t.Classes > 64 {
		return errors.New("robust: Task larger than the campaign budget allows (samples/classes <= 4096/64, size <= 64)")
	}
	if t.Epochs < 1 || t.Epochs > 256 {
		return fmt.Errorf("robust: Task.Epochs %d outside [1,256]", t.Epochs)
	}
	if t.LearningRate <= 0 || math.IsNaN(t.LearningRate) || math.IsInf(t.LearningRate, 0) {
		return fmt.Errorf("robust: Task.LearningRate %g, must be finite and > 0", t.LearningRate)
	}
	return nil
}

// ResolveConfig turns the spec's design-point naming into a validated
// arch.SystemConfig, by the preset-or-config rule of
// sim.ResolveDesignPoint that the serving layer also speaks.
func (s Spec) ResolveConfig() (arch.SystemConfig, error) {
	cfg, err := sim.ResolveDesignPoint(s.Preset, s.Config)
	if err != nil {
		return cfg, err
	}
	return cfg, cfg.Validate()
}

// ResolveNetworks resolves the spec's workload name to the network set
// trial throughput is measured on.
func (s Spec) ResolveNetworks() ([]nn.Network, error) {
	nets, _, err := s.workload()
	return nets, err
}

// workload resolves the spec's workload name to its networks and their
// canonical hashes, as the registry computed them.
func (s Spec) workload() ([]nn.Network, []string, error) {
	name := s.Network
	if name == "" {
		name = DefaultNetwork
	}
	return sim.ResolveWorkload(name)
}

// ScaledModel returns the fault model at one severity multiplier:
// per-unit failure probabilities scale linearly and clamp at 1, the loss
// σ scales linearly. Severity 0 is a perfect fab.
func (s Spec) ScaledModel(severity float64) faults.MonteCarloModel {
	clamp := func(p float64) float64 {
		if p > 1 {
			return 1
		}
		return p
	}
	return faults.MonteCarloModel{
		RFCUFailProb:       clamp(s.Model.RFCUFailProb * severity),
		WavelengthFailProb: clamp(s.Model.WavelengthFailProb * severity),
		BufferLossSigmaDB:  s.Model.BufferLossSigmaDB * severity,
	}
}

// campaignIdentity is the hashed form of a spec: design point and
// workload are replaced by their canonical content hashes, so two specs
// that spell the same design point differently (preset alias vs inline
// config, formatting differences) still share one campaign — and one
// checkpoint.
type campaignIdentity struct {
	Name          string
	ConfigHash    string
	NetworkHashes []string
	Model         faults.MonteCarloModel
	Severities    []float64
	Trials        int
	Seed          int64
	Retrain       bool
	Device        DeviceModel
	Task          TaskSpec
}

// ID returns the campaign's stable identity: the SHA-256 hex digest of
// the defaulted spec's canonical form. It names the checkpoint file and
// the GET /v1/robustness/{id} handle, and doubles as the route-key
// prefix sharding trials across a cluster. Call on the defaulted form.
func (s Spec) ID() (string, error) {
	cfg, err := s.ResolveConfig()
	if err != nil {
		return "", err
	}
	cfgHash, err := arch.ConfigHash(cfg)
	if err != nil {
		return "", err
	}
	_, netHashes, err := s.workload()
	if err != nil {
		return "", err
	}
	idt := campaignIdentity{
		Name:          s.Name,
		ConfigHash:    cfgHash,
		NetworkHashes: netHashes,
		Model:         s.Model,
		Severities:    s.Severities,
		Trials:        s.Trials,
		Seed:          s.Seed,
		Retrain:       s.Retrain,
		Device:        s.Device,
		Task:          s.Task,
	}
	data, err := json.Marshal(idt)
	if err != nil {
		return "", fmt.Errorf("robust: encoding campaign identity: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// Budget is the campaign's trial count: severities × trials.
func (s Spec) Budget() int { return len(s.Severities) * s.Trials }

// TrialSeed derives the deterministic seed of one (severity, trial) cell
// from the campaign seed with a splitmix-style mix. Seeds depend only on
// the indices — never on execution order, worker count or resume
// history — which is what makes a killed-and-restarted campaign's
// frontier byte-identical to an uninterrupted run's.
func TrialSeed(seed int64, severity, trial int) int64 {
	h := uint64(seed) * 0x9E3779B97F4A7C15
	h ^= uint64(severity+1) * 0xBF58476D1CE4E5B9
	h ^= uint64(trial+1) * 0x94D049BB133111EB
	h ^= h >> 31
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 29
	return int64(h)
}
