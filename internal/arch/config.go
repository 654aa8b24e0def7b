// Package arch assembles the full ReFOCUS system model: configurations for
// the paper's design points (single JTC, PhotoFourier-NG-style baseline,
// ReFOCUS-FF, ReFOCUS-FB), a component census with area accounting, and a
// bottom-up power/performance evaluator that multiplies dataflow event
// counts by component energies. All of the paper's tables and figures are
// regenerated from this package plus internal/baseline.
package arch

import (
	"fmt"

	"refocus/internal/buffers"
	"refocus/internal/cmos"
	"refocus/internal/dataflow"
	"refocus/internal/memory"
	"refocus/internal/phys"
)

// BufferKind selects the optical buffer design.
type BufferKind int

const (
	// NoBuffer: inputs are regenerated every cycle (baseline systems).
	NoBuffer BufferKind = iota
	// Feedforward: one reuse, balanced Y-junction (ReFOCUS-FF).
	Feedforward
	// Feedback: R reuses through the switch-gated loop (ReFOCUS-FB).
	Feedback
)

func (b BufferKind) String() string {
	switch b {
	case NoBuffer:
		return "none"
	case Feedforward:
		return "feedforward"
	case Feedback:
		return "feedback"
	default:
		return fmt.Sprintf("BufferKind(%d)", int(b))
	}
}

// SystemConfig describes one accelerator design point.
type SystemConfig struct {
	Name string

	// NRFCU is the compute unit count.
	NRFCU int
	// T is input waveguides per RFCU (256).
	T int
	// WeightWaveguides is active weight waveguides per RFCU (25).
	WeightWaveguides int
	// NLambda is WDM wavelengths per RFCU.
	NLambda int
	// M is the delay-line length and temporal-accumulation window in
	// cycles.
	M int
	// Buffer is the optical buffer design; Reuses applies to Feedback.
	Buffer BufferKind
	// Reuses R for the feedback buffer (15 in ReFOCUS-FB); the
	// feedforward buffer always reuses once.
	Reuses int
	// UseDataBuffers interposes the §5.2 SRAM data buffers.
	UseDataBuffers bool
	// BufferChoice selects the §5.3.3 dataflow ordering after a reuse
	// window: FilterMajor (choice (1), the paper's pick — small input
	// buffer) or ChannelMajor (choice (2) — small output buffer).
	BufferChoice memory.DataflowChoice
	// Batch is the inference batch size (default 1, as in the paper);
	// larger batches amortize weight-side conversions and DRAM traffic.
	Batch int
	// EONonlinearity selects the original PhotoFourier's active
	// Fourier-plane nonlinearity — a photodetector + electro-optic
	// modulator per waveguide — instead of the passive nonlinear material
	// the paper (and PhotoFourier-NG) assume (§2.1). Costs one detector
	// and one modulator per input waveguide per RFCU, always active.
	EONonlinearity bool
	// WeightSharing, when non-nil, applies the §7.3 software stack:
	// k-means kernel codebooks compress weight storage/traffic by
	// CompressionRatio, and SA channel reordering skips the fraction
	// WeightDACReduction of weight-DAC rewrites.
	WeightSharing *WeightSharingConfig

	// ActivationSRAMBytes (4 MB) and WeightSRAMBytesPerRFCU (512 KB).
	ActivationSRAMBytes    int
	WeightSRAMBytesPerRFCU int

	// Components and electronics models.
	Components phys.ComponentTable
	CMOS       cmos.Model
	DRAM       memory.DRAM
	Calib      Calibration
}

// reuses returns the effective optical reuse count for the dataflow model.
// The buffer kind is checked by Validate; an unknown kind here is an
// internal invariant violation.
func (c SystemConfig) reuses() int {
	switch c.Buffer {
	case NoBuffer:
		return 0
	case Feedforward:
		return 1
	case Feedback:
		return c.Reuses
	default:
		panic(fmt.Sprintf("arch: internal: unknown buffer kind %d", int(c.Buffer)))
	}
}

// LaserPowerFactor returns the average laser power relative to a
// bufferless system (paper Table 5 / §5.4.1) for the input-side laser.
// It requires a configuration that passes Validate.
func (c SystemConfig) LaserPowerFactor() float64 {
	switch c.Buffer {
	case NoBuffer:
		return 1
	case Feedforward:
		return buffers.MustFeedforwardBuffer(0, c.M, c.Components).RelativeLaserPower()
	case Feedback:
		b := buffers.MustFeedbackBuffer(buffers.OptimalFeedbackAlpha(c.Reuses), c.M, c.Components)
		return b.RelativeLaserPower(c.Reuses)
	default:
		panic(fmt.Sprintf("arch: internal: unknown buffer kind %d", int(c.Buffer)))
	}
}

// DataflowConfig maps the system design onto the scheduler contract.
func (c SystemConfig) DataflowConfig() dataflow.Config {
	return dataflow.Config{
		NRFCU:            c.NRFCU,
		T:                c.T,
		WeightWaveguides: c.WeightWaveguides,
		NLambda:          c.NLambda,
		M:                c.M,
		Reuses:           c.reuses(),
		UseDataBuffers:   c.UseDataBuffers,
		Batch:            c.Batch,
	}
}

// Validate reports inconsistent configurations. Every construction path —
// presets, JSON design points, programmatic configs — funnels through it
// before evaluation, so the evaluator itself never has to reject input.
func (c SystemConfig) Validate() error {
	switch c.Buffer {
	case NoBuffer, Feedforward, Feedback:
	default:
		return fmt.Errorf("arch: %s: unknown buffer kind %d", c.label(), int(c.Buffer))
	}
	if c.Buffer == Feedback && c.Reuses < 1 {
		return fmt.Errorf("arch: %s: feedback buffer needs Reuses >= 1, got %d", c.label(), c.Reuses)
	}
	if err := c.DataflowConfig().Validate(); err != nil {
		return fmt.Errorf("arch: %s: %w", c.label(), err)
	}
	if c.ActivationSRAMBytes <= 0 {
		return fmt.Errorf("arch: %s: ActivationSRAMBytes %d, must be positive", c.label(), c.ActivationSRAMBytes)
	}
	if c.WeightSRAMBytesPerRFCU <= 0 {
		return fmt.Errorf("arch: %s: WeightSRAMBytesPerRFCU %d, must be positive", c.label(), c.WeightSRAMBytesPerRFCU)
	}
	if err := c.BufferChoice.Validate(); err != nil {
		return fmt.Errorf("arch: %s: %w", c.label(), err)
	}
	if _, err := planBuffers(c); err != nil {
		return fmt.Errorf("arch: %s: %w", c.label(), err)
	}
	if c.Components.ClockFrequency <= 0 {
		return fmt.Errorf("arch: %s: Components.ClockFrequency %g, must be positive", c.label(), c.Components.ClockFrequency)
	}
	if c.Components.TemporalAccumulationCycles <= 0 {
		return fmt.Errorf("arch: %s: Components.TemporalAccumulationCycles %d, must be positive", c.label(), c.Components.TemporalAccumulationCycles)
	}
	if ws := c.WeightSharing; ws != nil {
		if ws.CompressionRatio < 1 {
			return fmt.Errorf("arch: %s: WeightSharing.CompressionRatio %g, must be >= 1", c.label(), ws.CompressionRatio)
		}
		if ws.WeightDACReduction < 0 || ws.WeightDACReduction >= 1 {
			return fmt.Errorf("arch: %s: WeightSharing.WeightDACReduction %g outside [0,1)", c.label(), ws.WeightDACReduction)
		}
	}
	return nil
}

// label names the config in error messages.
func (c SystemConfig) label() string {
	if c.Name == "" {
		return "unnamed config"
	}
	return "config " + c.Name
}

func defaults(name string) SystemConfig {
	return SystemConfig{
		Name:                   name,
		NRFCU:                  16,
		T:                      256,
		WeightWaveguides:       25,
		NLambda:                1,
		M:                      16,
		Buffer:                 NoBuffer,
		UseDataBuffers:         false,
		ActivationSRAMBytes:    4 * phys.MB,
		WeightSRAMBytesPerRFCU: 512 * phys.KB,
		Components:             phys.DefaultComponents(),
		CMOS:                   cmos.Default(),
		DRAM:                   memory.DefaultHBM2(),
		Calib:                  DefaultCalibration(),
	}
}

// SingleJTC returns the unoptimized single-JTC system of Figure 3(a):
// one compute unit, no temporal accumulation (ADC reads every cycle), no
// WDM, no optical buffer, converters talking to SRAM directly.
func SingleJTC() SystemConfig {
	c := defaults("single-JTC")
	c.NRFCU = 1
	c.M = 1
	c.WeightSRAMBytesPerRFCU = 512 * phys.KB
	return c
}

// Baseline returns ReFOCUS-baseline — the slightly modified
// PhotoFourier-NG of §3: 16 JTCs, 16-cycle temporal accumulation, passive
// nonlinearity, no WDM, no optical buffer, no data buffers.
func Baseline() SystemConfig {
	return defaults("ReFOCUS-baseline")
}

// FF returns ReFOCUS-FF (§5.1): 16 RFCUs, 2 wavelengths, 16-cycle delay
// lines with the feedforward buffer (one reuse), SRAM data buffers.
func FF() SystemConfig {
	c := defaults("ReFOCUS-FF")
	c.NLambda = 2
	c.Buffer = Feedforward
	c.UseDataBuffers = true
	return c
}

// FB returns ReFOCUS-FB (§5.1): as FF but with the feedback buffer reusing
// inputs 15 times at α = 1/16.
func FB() SystemConfig {
	c := defaults("ReFOCUS-FB")
	c.NLambda = 2
	c.Buffer = Feedback
	c.Reuses = 15
	c.UseDataBuffers = true
	return c
}

// WeightSharingConfig parameterizes the §7.3 weight-sharing stack.
type WeightSharingConfig struct {
	// CompressionRatio of the codebook representation over dense 8-bit
	// weights (the paper's 4.5×; internal/compress measures ≈4.2-4.5×).
	CompressionRatio float64
	// WeightDACReduction is the fraction of weight-DAC rewrites the
	// annealed channel order removes (~0.15 under the typical setup).
	WeightDACReduction float64
}

// FBWS returns ReFOCUS-FB with the §7.3 weight-sharing stack enabled.
func FBWS() SystemConfig {
	c := FB()
	c.Name = "ReFOCUS-FB+WS"
	c.WeightSharing = &WeightSharingConfig{CompressionRatio: 4.5, WeightDACReduction: 0.15}
	return c
}

// Calibration gathers the global fitted constants the paper's tooling
// (Cadence, CACTI, layout) implies but does not list. They are fixed once
// for every experiment; see DESIGN.md §5.
type Calibration struct {
	// RoutingAreaPerRFCU is waveguide routing/spacing area per RFCU not
	// attributable to a cataloged component. Fitted so the Figure-9
	// photonic total (135.7 mm²) and the Table-4 RFCU-count-vs-M row
	// reproduce: per-RFCU photonics then total ≈5.85 mm².
	RoutingAreaPerRFCU float64
	// InputFanoutArea is the shared input bank's routing/tree area.
	InputFanoutArea float64
	// LasersPerRFCU and InputBankLasers size the laser count.
	LasersPerRFCU   int
	InputBankLasers int
	// DACActivityFactor derates the Table-6 DAC power (reported for
	// full-rate full-swing conversion) to the average code activity of
	// CNN data. The paper applies the same correction ("multiplying the
	// power reported in [35] with the duty cycle of DAC in ReFOCUS");
	// 0.65 reproduces its absolute system powers within ~10%.
	DACActivityFactor float64
}

// DefaultCalibration returns the fitted constants.
func DefaultCalibration() Calibration {
	return Calibration{
		RoutingAreaPerRFCU: 1.2 * phys.MM2,
		InputFanoutArea:    0.4 * phys.MM2,
		LasersPerRFCU:      1,
		InputBankLasers:    2,
		DACActivityFactor:  0.65,
	}
}
