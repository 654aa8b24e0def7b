// Package faults models component failures and fabrication drift in a
// ReFOCUS design point and computes what the degraded machine honestly
// delivers. The paper's numbers assume every RFCU, WDM wavelength and
// spiral delay-line buffer works at spec; §7.2 concedes the fragile
// parts (fabrication variation, buffer loss l_d bounding the reuse
// count R). A FaultSet is a deterministic, JSON-serializable
// description of what is broken; Degrade maps it onto the §5.3 dataflow
// contract — surviving work is remapped onto healthy units, the
// feedback buffer's effective R is recomputed from the §4 split-ratio
// math under the extra loss, and laser/ADC costs are derated — so the
// degraded report comes from the same bottom-up evaluator as the
// healthy one, never from scaling a healthy number.
package faults

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"

	"refocus/internal/arch"
	"refocus/internal/buffers"
)

// ErrNothingRuns reports a fault set that leaves no usable compute path:
// every RFCU dead, or every wavelength dead on every surviving RFCU.
// Degraded evaluation refuses to produce a number for a machine that
// cannot run — a hard error, not a zero.
var ErrNothingRuns = errors.New("faults: no healthy compute path remains")

// FaultSet describes the broken parts of one physical chip. The zero
// value is a fully healthy machine. All fields are plain data: a fault
// set can live in a JSON file, an HTTP request, or a Monte Carlo trial,
// and two equal values always degrade a config identically.
type FaultSet struct {
	// Name labels the fault set in reports and golden tests.
	Name string `json:",omitempty"`
	// DeadRFCUs lists compute-unit indices (0-based, < NRFCU) that are
	// completely failed: their filters are remapped onto survivors.
	DeadRFCUs []int `json:",omitempty"`
	// DeadWavelengths maps an RFCU index to the WDM wavelength indices
	// (0-based, < NLambda) whose laser/comb line has failed on that
	// unit. An RFCU with every wavelength dead counts as a dead RFCU.
	DeadWavelengths map[int][]int `json:",omitempty"`
	// BufferExcessLossDB is extra per-trip power loss of the M-cycle
	// delay-line buffer beyond spec (fabrication drift). It raises l_d
	// in the §4 equations: the feedforward split ratio rebalances per
	// Eq. (4), and the feedback reuse count R is derated to the largest
	// value whose dynamic range X_0/X_R still fits the detector chain.
	BufferExcessLossDB float64 `json:",omitempty"`
	// ADCEnergyFactor multiplies the per-conversion ADC energy (an aged
	// or out-of-spec converter burning more per sample). Zero means 1;
	// values below 1 are rejected — faults never improve the machine.
	ADCEnergyFactor float64 `json:",omitempty"`
	// PDResponsivityDrop is the fractional loss of photodetector
	// responsivity in [0,1); the laser must emit 1/(1-drop) more power
	// to keep the last reuse detectable.
	PDResponsivityDrop float64 `json:",omitempty"`
	// MaxDynamicRange overrides the detector chain's resolvable
	// intensity ratio used when derating R (zero: the component table's
	// PhotodetectorDynamicRangeLevels, 256 for the 8-bit ADC).
	MaxDynamicRange float64 `json:",omitempty"`
}

// IsZero reports whether the fault set describes a fully healthy
// machine, i.e. degrading with it is the identity.
func (f FaultSet) IsZero() bool {
	return len(f.DeadRFCUs) == 0 && len(f.DeadWavelengths) == 0 &&
		f.BufferExcessLossDB == 0 && (f.ADCEnergyFactor == 0 || f.ADCEnergyFactor == 1) &&
		f.PDResponsivityDrop == 0
}

// ForConfig validates the fault set against the design point and returns
// the set to evaluate: nil for a zero set, which is the healthy machine,
// so a set that breaks nothing is never reported as a degradation.
func (f FaultSet) ForConfig(cfg arch.SystemConfig) (*FaultSet, error) {
	if err := f.Validate(cfg); err != nil {
		return nil, err
	}
	if f.IsZero() {
		return nil, nil
	}
	return &f, nil
}

// Validate reports fault sets that do not describe the given design
// point: out-of-range or duplicate unit indices, negative loss, or
// deratings outside their domain.
func (f FaultSet) Validate(cfg arch.SystemConfig) error {
	seen := make(map[int]bool, len(f.DeadRFCUs))
	for _, r := range f.DeadRFCUs {
		if r < 0 || r >= cfg.NRFCU {
			return fmt.Errorf("faults: %s: dead RFCU %d outside [0,%d)", f.label(), r, cfg.NRFCU)
		}
		if seen[r] {
			return fmt.Errorf("faults: %s: RFCU %d listed dead twice", f.label(), r)
		}
		seen[r] = true
	}
	for rfcu, lams := range f.DeadWavelengths {
		if rfcu < 0 || rfcu >= cfg.NRFCU {
			return fmt.Errorf("faults: %s: dead wavelength on RFCU %d outside [0,%d)", f.label(), rfcu, cfg.NRFCU)
		}
		seenL := make(map[int]bool, len(lams))
		for _, l := range lams {
			if l < 0 || l >= cfg.NLambda {
				return fmt.Errorf("faults: %s: RFCU %d wavelength %d outside [0,%d)", f.label(), rfcu, l, cfg.NLambda)
			}
			if seenL[l] {
				return fmt.Errorf("faults: %s: RFCU %d wavelength %d listed dead twice", f.label(), rfcu, l)
			}
			seenL[l] = true
		}
	}
	if f.BufferExcessLossDB < 0 {
		return fmt.Errorf("faults: %s: BufferExcessLossDB %g, must be >= 0", f.label(), f.BufferExcessLossDB)
	}
	if f.ADCEnergyFactor != 0 && f.ADCEnergyFactor < 1 {
		return fmt.Errorf("faults: %s: ADCEnergyFactor %g, must be >= 1 (or 0 for unset)", f.label(), f.ADCEnergyFactor)
	}
	if f.PDResponsivityDrop < 0 || f.PDResponsivityDrop >= 1 {
		return fmt.Errorf("faults: %s: PDResponsivityDrop %g outside [0,1)", f.label(), f.PDResponsivityDrop)
	}
	if f.MaxDynamicRange != 0 && f.MaxDynamicRange <= 1 {
		return fmt.Errorf("faults: %s: MaxDynamicRange %g, must be > 1 (or 0 for the component table's)", f.label(), f.MaxDynamicRange)
	}
	return nil
}

// label names the fault set in error messages.
func (f FaultSet) label() string {
	if f.Name == "" {
		return "unnamed fault set"
	}
	return "fault set " + f.Name
}

// Canonical returns a normalized copy — unit lists sorted ascending —
// so equal fault sets written in any order share one encoding and hash.
func (f FaultSet) Canonical() FaultSet {
	out := f
	if len(f.DeadRFCUs) > 0 {
		out.DeadRFCUs = append([]int(nil), f.DeadRFCUs...)
		sort.Ints(out.DeadRFCUs)
	}
	if len(f.DeadWavelengths) > 0 {
		out.DeadWavelengths = make(map[int][]int, len(f.DeadWavelengths))
		for rfcu, lams := range f.DeadWavelengths {
			c := append([]int(nil), lams...)
			sort.Ints(c)
			out.DeadWavelengths[rfcu] = c
		}
	}
	return out
}

// Hash returns the SHA-256 hex digest of the canonical encoding — the
// stable identity of a fault set. The serving layer appends it to the
// cache key so a degraded report can never be served as (or from) a
// healthy one.
func (f FaultSet) Hash() (string, error) {
	data, err := json.Marshal(f.Canonical())
	if err != nil {
		return "", fmt.Errorf("faults: encoding %s: %w", f.label(), err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// Parse reads a fault set from strict JSON: unknown fields are errors,
// not silently ignored faults.
func Parse(data []byte) (FaultSet, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f FaultSet
	if err := dec.Decode(&f); err != nil {
		return FaultSet{}, fmt.Errorf("faults: parsing fault set: %w", err)
	}
	if dec.More() {
		return FaultSet{}, errors.New("faults: parsing fault set: trailing data after JSON object")
	}
	return f, nil
}

// Load reads a fault set from a JSON file via Parse.
func Load(path string) (FaultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return FaultSet{}, fmt.Errorf("faults: %w", err)
	}
	return Parse(data)
}

// Degradation records how a fault set was mapped onto the dataflow: the
// remapping decisions a degraded report's numbers follow exactly.
type Degradation struct {
	// FaultSet is the applied fault set's name.
	FaultSet string `json:",omitempty"`
	// HealthyRFCUs is the unit count surviving work runs on (dead units
	// plus units with no working wavelength are excluded; their filter
	// rounds are rescheduled onto survivors).
	HealthyRFCUs int
	// EffectiveLambda is the WDM parallelism the lockstep broadcast can
	// still use: inputs fan out to every healthy RFCU simultaneously,
	// so channel serialization runs at the worst survivor's healthy
	// wavelength count.
	EffectiveLambda int
	// EffectiveBuffer is the optical buffer actually used after
	// derating (a feedback buffer whose dynamic range no longer fits
	// even one reuse is bypassed entirely).
	EffectiveBuffer arch.BufferKind
	// EffectiveReuses is the feedback reuse count after the §4
	// dynamic-range derate under the excess buffer loss.
	EffectiveReuses int
	// DelayTripLossDB is the total per-trip delay-line loss (spec plus
	// excess) the effective R was computed against.
	DelayTripLossDB float64
}

// Degrade maps the fault set onto the design point and returns the
// effective configuration surviving work runs on, plus the remapping
// record. The effective config is what the evaluator prices: dead units
// are power-gated (their SRAM leakage, weight lasers and control logic
// off), but they still occupy chip area — Evaluate restores the
// physical chip's area so area-normalized metrics stay honest. A zero
// fault set returns cfg unchanged, bit for bit.
func (f FaultSet) Degrade(cfg arch.SystemConfig) (arch.SystemConfig, Degradation, error) {
	if err := cfg.Validate(); err != nil {
		return arch.SystemConfig{}, Degradation{}, err
	}
	if err := f.Validate(cfg); err != nil {
		return arch.SystemConfig{}, Degradation{}, err
	}
	deg := Degradation{
		FaultSet:        f.Name,
		HealthyRFCUs:    cfg.NRFCU,
		EffectiveLambda: cfg.NLambda,
		EffectiveBuffer: cfg.Buffer,
		EffectiveReuses: cfg.Reuses,
		DelayTripLossDB: cfg.Components.DelayLineFor(cfg.M).LossDB,
	}
	if f.IsZero() {
		return cfg, deg, nil
	}

	// Unit remapping: an RFCU is unusable when listed dead or when all
	// its wavelengths failed; the rest run in lockstep off the shared
	// broadcast, so the array's channel parallelism is the minimum
	// healthy wavelength count among survivors.
	dead := make(map[int]bool, len(f.DeadRFCUs))
	for _, r := range f.DeadRFCUs {
		dead[r] = true
	}
	healthy, minLambda := 0, cfg.NLambda
	for r := 0; r < cfg.NRFCU; r++ {
		if dead[r] {
			continue
		}
		alive := cfg.NLambda - len(f.DeadWavelengths[r])
		if alive <= 0 {
			continue
		}
		healthy++
		if alive < minLambda {
			minLambda = alive
		}
	}
	if healthy == 0 {
		return arch.SystemConfig{}, Degradation{}, fmt.Errorf("faults: %s on %s: %w", f.label(), cfg.Name, ErrNothingRuns)
	}

	eff := cfg
	eff.NRFCU = healthy
	eff.NLambda = minLambda
	deg.HealthyRFCUs = healthy
	deg.EffectiveLambda = minLambda

	// Buffer drift: spread the per-trip excess loss over the line's M
	// cycles so every consumer of the component table (split-ratio
	// math, laser compensation, feedforward rebalancing) sees it.
	if f.BufferExcessLossDB > 0 {
		eff.Components.DelayLineLossPerCycleDB += f.BufferExcessLossDB / float64(cfg.M)
	}
	deg.DelayTripLossDB = eff.Components.DelayLineFor(cfg.M).LossDB

	if eff.Buffer == arch.Feedback {
		r, ok := maxFeasibleReuses(eff, f.maxDynamicRange(cfg))
		if !ok {
			// Even one reuse overflows the detector's dynamic range:
			// bypass the buffer and regenerate every input optically.
			eff.Buffer = arch.NoBuffer
			eff.Reuses = 0
		} else {
			eff.Reuses = r
		}
		deg.EffectiveBuffer = eff.Buffer
		deg.EffectiveReuses = eff.Reuses
	}

	if f.ADCEnergyFactor > 1 {
		eff.Components.ADCPower *= f.ADCEnergyFactor
	}
	if f.PDResponsivityDrop > 0 {
		eff.Components.LaserMinPowerPerWaveguide /= 1 - f.PDResponsivityDrop
	}
	return eff, deg, nil
}

// maxDynamicRange returns the detector-chain bound the reuse derate
// enforces: the override when set, else the component table's.
func (f FaultSet) maxDynamicRange(cfg arch.SystemConfig) float64 {
	if f.MaxDynamicRange > 0 {
		return f.MaxDynamicRange
	}
	return cfg.Components.PhotodetectorDynamicRangeLevels
}

// maxFeasibleReuses returns the largest R <= cfg.Reuses whose feedback
// buffer — at the optimal split α = 1/(R+1) and the (possibly lossier)
// delay line — keeps the fresh-to-last-reuse dynamic range X_0/X_R
// within maxDR (paper §5.4.2). ok is false when not even R = 1 fits.
func maxFeasibleReuses(cfg arch.SystemConfig, maxDR float64) (int, bool) {
	for r := cfg.Reuses; r >= 1; r-- {
		b, err := buffers.NewFeedbackBuffer(buffers.OptimalFeedbackAlpha(r), cfg.M, cfg.Components)
		if err != nil {
			return 0, false
		}
		if b.DynamicRange(r) <= maxDR {
			return r, true
		}
	}
	return 0, false
}
