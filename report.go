package repro

// This file defines the typed Report a Plan.Run returns: one immutable
// result object with per-metric and per-window accessors plus the
// engine instrumentation of the run.

import "repro/internal/metrics"

// MetricCurve is the generic value-vs-∆ curve of one snapshot metric
// (MetricDegree, MetricClustering, MetricComponents, MetricCoreness,
// MetricWeighted): named series over the candidate grid, each with a
// stability score in [0, 1] from the Section-7 M-K proximity selector
// — 1 means the series is flat across ∆ (a plateau), 0 means it never
// stops drifting. See docs/METRICS.md for every series' definition.
type MetricCurve = metrics.Curve

// MetricSeries is one named value sequence of a MetricCurve, indexed
// like the curve's Deltas.
type MetricSeries = metrics.Series

// Curves holds every built-in curve computed for one scope (the whole
// stream or one window). Only the curves of the plan's requested
// metrics are non-nil; each is in candidate-grid order.
type Curves struct {
	// Occupancy is the occupancy-method curve (MetricOccupancy): one
	// scored point per candidate period, refinement points included and
	// merged in ∆ order when the plan refines.
	Occupancy []SweepPoint `json:"occupancy,omitempty"`
	// Classic is the Figure 2 classical-properties curve
	// (MetricClassic).
	Classic []ClassicPoint `json:"classic,omitempty"`
	// Distance is the Figure 2 mean temporal-distance curve
	// (MetricDistance).
	Distance []DistancePoint `json:"distance,omitempty"`
	// TransitionLoss is the Section 8 lost-transitions curve
	// (MetricTransitionLoss).
	TransitionLoss []LossPoint `json:"transition_loss,omitempty"`
	// Elongation is the Section 8 trip-elongation curve
	// (MetricElongation).
	Elongation []ElongationPoint `json:"elongation,omitempty"`
	// Snapshots are the snapshot-metric curves (MetricDegree,
	// MetricClustering, MetricComponents, MetricCoreness,
	// MetricWeighted), one MetricCurve per requested metric in enum
	// order.
	Snapshots []MetricCurve `json:"snapshots,omitempty"`
}

// WindowReport is the outcome of one Window of the plan: the window's
// curves and, when the occupancy metric ran, its saturation scale.
type WindowReport struct {
	// Start, End are the window bounds, [Start, End) in raw time.
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	// Scale is the occupancy-method outcome on the window's events; the
	// zero Result when the plan did not request MetricOccupancy.
	Scale Result `json:"scale"`
	// Curves are the window's metric curves.
	Curves Curves `json:"curves"`
}

// Report is the immutable outcome of Plan.Run.
type Report struct {
	scale    Result
	hasScale bool
	global   Curves
	windows  []WindowReport
	adaptive *AdaptiveAnalysis
	stats    EngineStats
}

// Scale returns the occupancy-method outcome on the whole stream — the
// saturation scale γ, its score and the full score curve — and whether
// the plan computed one (it did unless MetricOccupancy was deselected).
func (r *Report) Scale() (Result, bool) { return r.scale, r.hasScale }

// Gamma returns the saturation scale of the whole stream, or 0 when
// the plan did not compute one.
func (r *Report) Gamma() int64 { return r.scale.Gamma }

// Global returns the whole-stream curves of every requested metric.
func (r *Report) Global() Curves { return r.global }

// Occupancy returns the whole-stream occupancy-method curve.
func (r *Report) Occupancy() []SweepPoint { return r.global.Occupancy }

// Classic returns the whole-stream classical-properties curve.
func (r *Report) Classic() []ClassicPoint { return r.global.Classic }

// Distances returns the whole-stream mean temporal-distance curve.
func (r *Report) Distances() []DistancePoint { return r.global.Distance }

// TransitionLoss returns the whole-stream lost-transitions curve.
func (r *Report) TransitionLoss() []LossPoint { return r.global.TransitionLoss }

// Elongation returns the whole-stream trip-elongation curve.
func (r *Report) Elongation() []ElongationPoint { return r.global.Elongation }

// Snapshots returns the whole-stream snapshot-metric curves, one per
// requested snapshot metric ("degree", "clustering", "components",
// "coreness", "weighted") in enum order.
func (r *Report) Snapshots() []MetricCurve { return r.global.Snapshots }

// Snapshot returns the whole-stream curve of the named snapshot metric
// and whether the plan computed it.
func (r *Report) Snapshot(name string) (MetricCurve, bool) {
	for _, c := range r.global.Snapshots {
		if c.Metric == name {
			return c, true
		}
	}
	return MetricCurve{}, false
}

// NumWindows returns how many plan windows were analysed.
func (r *Report) NumWindows() int { return len(r.windows) }

// Window returns the i-th window's report, in WithWindows registration
// order.
func (r *Report) Window(i int) WindowReport { return r.windows[i] }

// Windows returns every window report in registration order.
func (r *Report) Windows() []WindowReport { return r.windows }

// Adaptive returns the activity-segmented analysis, non-nil only for
// plans built with WithAdaptive.
func (r *Report) Adaptive() *AdaptiveAnalysis { return r.adaptive }

// EngineStats returns the engine instrumentation accumulated over
// every pass of the run.
func (r *Report) EngineStats() EngineStats { return r.stats }
