package core

import (
	"softsku/internal/knob"
	"softsku/internal/twin"
)

// Evaluator is the tiered-fidelity ladder the search layer consults
// before spending a characterization window on a candidate (DESIGN.md
// §16): Score answers from the cheapest rung that can — an analytical
// twin prediction or an exact repricing of a cached window — and
// Margin says how much predicted regression that rung's answer must
// show before the driver may discard the candidate unmeasured. The
// contract mirrors the rest of the determinism story: every method is
// called only from the run's serial phases, and implementations must
// return identical answers at any -parallel and under chaos.
//
// twin.Evaluator is the production implementation; the interface is
// satisfied structurally so the twin package never imports core.
type Evaluator interface {
	// Calibrate fits the model against real windows for the run's anchor
	// configurations. Called once, on the serial phase, before any round.
	Calibrate() error
	// Score predicts the optimization metric for cfg. rung names the
	// fidelity level that answered; ok is false when no rung can.
	Score(cfg knob.Config) (score float64, rung string, ok bool)
	// Margin is the pruning safety margin (percent of the control score)
	// required of predictions from the given rung.
	Margin(rung string) float64
	// CrossCheck compares the model against a configuration whose window
	// was just measured, feeding the continuous error telemetry.
	CrossCheck(cfg knob.Config)
	// MedianAbsErrPct summarizes the cross-check error so far (-1 before
	// any check).
	MedianAbsErrPct() float64
}

// SetEvaluator attaches a tiered-fidelity evaluator to the tool. Hill,
// halving and CEM rounds score every candidate arm against the round's
// control and discard — without measuring — arms whose predicted
// regression clears the rung's safety margin, recording each discard
// as a twin_pruned ledger event. The independent and exhaustive sweeps
// measure every realizable point: the evaluator only calibrates and
// cross-checks them. nil (the default, unless the input file says
// `twin = on`) measures every validated arm, bit-identical to the
// pre-ladder pipeline.
func (t *Tool) SetEvaluator(e Evaluator) { t.eval = e }

// Evaluator returns the attached evaluator (nil if none).
func (t *Tool) Evaluator() Evaluator { return t.eval }

// newTwinEvaluator builds the default ladder — the analytical twin
// calibrated for this run's service, platform, seed, and metric.
func (t *Tool) newTwinEvaluator() Evaluator {
	return twin.NewEvaluator(t.sku, t.prof, t.in.Seed, t.prof.MaxCPUUtil,
		twin.MetricFor(t.in.Metric.String()))
}
