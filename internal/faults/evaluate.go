package faults

import (
	"context"

	"refocus/internal/arch"
	"refocus/internal/nn"
)

// Report is one degraded evaluation: the bottom-up arch report of the
// effective (remapped) machine plus the remapping record that explains
// it. The embedded report's area fields always describe the physical
// chip — dead silicon still occupies (and was paid for in) area — so
// FPS/mm² and PAP compare degraded and healthy machines honestly.
type Report struct {
	arch.Report
	// Degradation records the remapping the numbers follow.
	Degradation Degradation
}

// Evaluate runs the bottom-up model for one network on the degraded
// machine (see EvaluateAllCtx). With a zero fault set the embedded
// report is bit-identical to arch.Evaluate's. A fault set that leaves
// nothing runnable returns ErrNothingRuns rather than any number.
func Evaluate(cfg arch.SystemConfig, fs FaultSet, net nn.Network) (Report, error) {
	reports, deg, err := EvaluateAllCtx(context.Background(), cfg, &fs, []nn.Network{net})
	if err != nil {
		return Report{}, err
	}
	return Report{Report: reports[0], Degradation: *deg}, nil
}

// EvaluateAllCtx is the one evaluation of a design point on a set of
// networks, healthy or degraded, fanning out like arch.EvaluateAllCtx and
// honoring cancellation between networks. A nil fs is the healthy
// machine: the reports are arch.EvaluateAllCtx's and the Degradation is
// nil. Otherwise the fault set is mapped onto the dataflow once
// (Degrade), the effective configuration is evaluated exactly like a
// healthy one, and the area-normalized metrics are restored to the
// physical chip's area; every report follows the returned remapping. A
// zero fault set gives reports bit-identical to the healthy machine's.
func EvaluateAllCtx(ctx context.Context, cfg arch.SystemConfig, fs *FaultSet, nets []nn.Network) ([]arch.Report, *Degradation, error) {
	if fs == nil {
		reports, err := arch.EvaluateAllCtx(ctx, cfg, nets)
		return reports, nil, err
	}
	eff, deg, err := fs.Degrade(cfg)
	if err != nil {
		return nil, nil, err
	}
	reports, err := arch.EvaluateAllCtx(ctx, eff, nets)
	if err != nil {
		return nil, nil, err
	}
	if !fs.IsZero() {
		// The effective config priced power on healthy units only
		// (dead ones are power-gated), but the chip's footprint is the
		// nominal design's.
		physArea, err := arch.ComputeArea(cfg)
		if err != nil {
			return nil, nil, err
		}
		for i := range reports {
			r := &reports[i]
			r.Area = physArea
			r.FPSPerMM2 = r.FPS / (physArea.Total() / 1e-6)
			r.PAP = r.FPSPerWatt * r.FPSPerMM2
		}
	}
	return reports, &deg, nil
}
