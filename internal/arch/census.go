package arch

import (
	"refocus/internal/memory"
)

// Census is the component inventory of a design point.
type Census struct {
	InputDACs  int // shared input bank, one per waveguide per wavelength
	InputMRRs  int
	SwitchMRRs int // feedback buffer gates (one per input waveguide)
	WeightDACs int // per-RFCU weight banks
	WeightMRRs int
	ADCs       int // one per detector; shared across wavelengths by WDM
	PDs        int
	Lenses     int
	DelayLines int // input-side spirals, shared across wavelengths & RFCUs
	YJunctions int
	Lasers     int
}

// TakeCensus counts components for a configuration.
func TakeCensus(c SystemConfig) (Census, error) {
	if err := c.Validate(); err != nil {
		return Census{}, err
	}
	return censusOf(c), nil
}

// censusOf counts components for an already-validated configuration.
func censusOf(c SystemConfig) Census {
	census := Census{
		InputDACs:  c.T * c.NLambda,
		InputMRRs:  c.T * c.NLambda,
		WeightDACs: c.WeightWaveguides * c.NLambda * c.NRFCU,
		WeightMRRs: c.WeightWaveguides * c.NLambda * c.NRFCU,
		ADCs:       c.T * c.NRFCU,
		PDs:        c.T * c.NRFCU,
		Lenses:     2 * c.NRFCU,
		Lasers:     c.Calib.LasersPerRFCU*c.NRFCU + c.Calib.InputBankLasers,
		// Broadcast tree: T waveguides fan out to NRFCU units.
		YJunctions: c.T * (c.NRFCU - 1),
	}
	switch c.Buffer {
	case Feedforward:
		census.DelayLines = c.T
		census.YJunctions += 2 * c.T // split + merge per waveguide
	case Feedback:
		census.DelayLines = c.T
		census.YJunctions += c.T
		census.SwitchMRRs = c.T
	}
	return census
}

// AreaBreakdown itemizes chip area in m².
type AreaBreakdown struct {
	Lens          float64
	DelayLine     float64
	Photodetector float64
	MRR           float64
	YJunction     float64
	Laser         float64
	Routing       float64 // fitted waveguide routing/spacing (Calibration)

	Converters float64 // ADCs + DACs
	CMOSLogic  float64
	SRAM       float64 // activation + weight SRAMs
	DataBuffer float64
}

// Photonic returns the photonic-component subtotal (the paper's
// "photonic components" figure: 135.7 mm² for ReFOCUS, 90.7 for the
// baseline).
func (a AreaBreakdown) Photonic() float64 {
	return a.Lens + a.DelayLine + a.Photodetector + a.MRR + a.YJunction + a.Laser + a.Routing
}

// Total returns full chip area.
func (a AreaBreakdown) Total() float64 {
	return a.Photonic() + a.Converters + a.CMOSLogic + a.SRAM + a.DataBuffer
}

// ComputeArea assembles the area breakdown for a configuration.
func ComputeArea(c SystemConfig) (AreaBreakdown, error) {
	if err := c.Validate(); err != nil {
		return AreaBreakdown{}, err
	}
	return areaOf(c), nil
}

// MustComputeArea is ComputeArea for known-valid configurations (the
// presets and their sweep variants); an error is an internal invariant
// violation.
func MustComputeArea(c SystemConfig) AreaBreakdown {
	a, err := ComputeArea(c)
	if err != nil {
		panic("arch: internal: " + err.Error())
	}
	return a
}

// areaOf assembles the breakdown for an already-validated configuration.
func areaOf(c SystemConfig) AreaBreakdown {
	cs := censusOf(c)
	ct := c.Components
	var a AreaBreakdown
	a.Lens = float64(cs.Lenses) * ct.LensArea
	a.DelayLine = float64(cs.DelayLines) * ct.DelayLineFor(c.M).Area
	a.Photodetector = float64(cs.PDs) * ct.PhotodetectorArea
	a.MRR = float64(cs.InputMRRs+cs.WeightMRRs+cs.SwitchMRRs) * ct.MRRArea
	a.YJunction = float64(cs.YJunctions) * ct.YJunctionArea
	a.Laser = float64(cs.Lasers) * ct.LaserArea
	a.Routing = float64(c.NRFCU)*c.Calib.RoutingAreaPerRFCU + c.Calib.InputFanoutArea

	a.Converters = c.CMOS.ConverterArea(cs.InputDACs+cs.WeightDACs, cs.ADCs)
	a.CMOSLogic = c.CMOS.LogicArea(c.NRFCU)

	a.SRAM = memory.MustSRAM("activation", c.ActivationSRAMBytes, 32).Area() +
		float64(c.NRFCU)*memory.MustSRAM("weight", c.WeightSRAMBytesPerRFCU, 32).Area()
	if c.UseDataBuffers {
		plan := bufferPlan(c)
		a.DataBuffer = plan.InputBuffer(true).Area() +
			float64(c.NRFCU)*plan.OutputBuffer(true).Area()
	}
	return a
}

// planBuffers sizes the data buffers using the worst-case benchmark
// parameters (N_F = N_C = 512 per §5.3.3; ResNet-50's 2048-filter layers
// stripe across output-buffer refills). Validate runs it, so a design
// point the plan cannot size (a filter-major plan over more RFCUs than
// N_F) is rejected as input rather than reached by Evaluate.
func planBuffers(c SystemConfig) (memory.BufferPlan, error) {
	reuses := c.reuses()
	if reuses < 1 {
		reuses = 1 // a bufferless config still sizes a nominal plan
	}
	return memory.PlanBuffers(c.BufferChoice, c.T, c.M, c.NLambda, 512, 512, c.NRFCU, reuses)
}

// bufferPlan is planBuffers for an already-validated configuration.
func bufferPlan(c SystemConfig) memory.BufferPlan {
	plan, err := planBuffers(c)
	if err != nil {
		panic("arch: internal: " + err.Error())
	}
	return plan
}

// MaxRFCUsForBudget returns the largest RFCU count whose *photonic* area
// fits the budget (the paper's 150 mm² design rule, §5.4.1), for a given
// delay length M. The SRAM/CMOS area is excluded, as in the paper.
func MaxRFCUsForBudget(base SystemConfig, m int, budget float64) (int, error) {
	probe := base
	probe.M = m
	probe.NRFCU = 1
	if err := probe.Validate(); err != nil {
		return 0, err
	}
	n := 0
	for try := 1; try <= 64; try++ {
		cfg := base
		cfg.NRFCU = try
		cfg.M = m
		if areaOf(cfg).Photonic() <= budget {
			n = try
		}
	}
	return n, nil
}
