package repro

// Equivalence pins of the plan against the internal implementations
// that define each result: every Plan.Run must be bit-exact with
// core.SaturationScale, core.Sweep, classic.Curve, the validate
// curves, a raw sweep.Run or sweep.RunWindowed pass, and
// adaptive.AnalyzeReference. Together with the internal packages' own
// *Reference equivalence suites, this chains the single execution path
// back to the seed implementations. Each test keeps the name of the
// root-level entry point that used to carry its contract.

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/adaptive"
	"repro/internal/classic"
	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/validate"
)

// runPlan builds the plan and runs it, failing the test on any error.
func runPlan(t testing.TB, s *Stream, opts ...Option) *Report {
	t.Helper()
	plan, err := NewAnalysis(s, opts...)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := plan.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// planOptions maps core.Options onto the plan options that run the
// same occupancy analysis.
func planOptions(opt Options) []Option {
	opts := []Option{
		WithDirected(opt.Directed),
		WithWorkers(opt.Workers),
		WithSelectors(opt.Selectors...),
		WithRefine(opt.Refine),
		WithMaxInFlight(opt.MaxInFlight),
	}
	if len(opt.Grid) > 0 {
		opts = append(opts, WithGrid(opt.Grid...))
	}
	return opts
}

func TestSaturationScaleWrapperEquivalence(t *testing.T) {
	s := uniformWorkload(t)
	for _, opt := range []Options{
		{},
		{Grid: LogGrid(1, 50_000, 12), Refine: 4},
		{Grid: LogGrid(1, 50_000, 9), Directed: true, Workers: 3},
		{Grid: LogGrid(1, 50_000, 9), Selectors: AllSelectors(), MaxInFlight: 2},
	} {
		want, err := core.SaturationScale(context.Background(), s, opt)
		if err != nil {
			t.Fatal(err)
		}
		res, ok := runPlan(t, s, planOptions(opt)...).Scale()
		if !ok || !reflect.DeepEqual(res, want) {
			t.Fatalf("plan scale diverged for %+v:\n got %+v\nwant %+v", opt, res, want)
		}
	}
}

func TestSweepWrapperEquivalence(t *testing.T) {
	s := uniformWorkload(t)
	grid := LogGrid(1, 50_000, 10)
	for _, opt := range []Options{
		{},
		{Selectors: AllSelectors()},
		{Directed: true, Workers: 2, MaxInFlight: 1},
	} {
		want, err := core.Sweep(context.Background(), s, grid, opt)
		if err != nil {
			t.Fatal(err)
		}
		got := runPlan(t, s, append(planOptions(opt), WithGrid(grid...))...).Occupancy()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("plan occupancy curve diverged for %+v", opt)
		}
	}
}

func TestCurveWrapperEquivalence(t *testing.T) {
	s := uniformWorkload(t)
	grid := LogGrid(1, 50_000, 8)
	for _, directed := range []bool{false, true} {
		rep := runPlan(t, s, WithMetrics(MetricClassic, MetricTransitionLoss, MetricElongation),
			WithGrid(grid...), WithDirected(directed))

		wantClassic, err := classic.Curve(context.Background(), s, grid, classic.Options{Directed: directed})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep.Classic(), wantClassic) {
			t.Fatalf("classic curve diverged (directed=%v)", directed)
		}

		wantLoss, err := validate.TransitionLossCurve(context.Background(), s, grid, validate.Options{Directed: directed})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep.TransitionLoss(), wantLoss) {
			t.Fatalf("transition-loss curve diverged (directed=%v)", directed)
		}

		wantElong, err := validate.ElongationCurve(context.Background(), s, grid, validate.Options{Directed: directed})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep.Elongation(), wantElong) {
			t.Fatalf("elongation curve diverged (directed=%v)", directed)
		}
	}
}

func TestAnalyzeAdaptiveWrapperEquivalence(t *testing.T) {
	s := twoModeWorkload(t)
	for _, c := range []struct {
		cfg      AdaptiveConfig
		opt      Options
		points   int
		minDelta int64
	}{
		{},
		{cfg: AdaptiveConfig{Bins: 60}, opt: Options{MaxInFlight: 2}, points: 10},
		{opt: Options{Refine: 2, Workers: 3}, points: 8},
		{cfg: AdaptiveConfig{MinRunBins: 3, SeparationFactor: 2}, opt: Options{Directed: true}, points: 8, minDelta: 60},
	} {
		want, err := adaptive.AnalyzeReference(s, c.cfg, c.opt, c.points, c.minDelta)
		if err != nil {
			t.Fatal(err)
		}
		got := runPlan(t, s, append(planOptions(c.opt),
			WithAdaptive(c.cfg), WithGridPoints(c.points), WithMinDelta(c.minDelta))...).Adaptive()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("adaptive plan diverged for %+v:\n got %+v\nwant %+v", c, got, want)
		}
	}
}

func TestMultiSweepWrapperEquivalence(t *testing.T) {
	s := uniformWorkload(t)
	grid := LogGrid(1, 50_000, 8)

	build := func() []SweepObserver {
		return []SweepObserver{
			NewOccupancyObserver(nil),
			NewClassicObserver(),
			NewTransitionLossObserver(),
			NewElongationObserver(),
			NewDistanceObserver(),
		}
	}
	wantObs := build()
	if err := sweep.Run(context.Background(), s, grid, sweep.Options{MaxInFlight: 2}, wantObs...); err != nil {
		t.Fatal(err)
	}
	gotObs := build()
	rep := runPlan(t, s, WithMetrics(), WithGrid(grid...), WithMaxInFlight(2), WithObservers(gotObs...))
	if stats := rep.EngineStats(); stats.Passes != 1 || stats.Builds != int64(len(grid)) {
		t.Fatalf("observer plan engine stats = %+v, want 1 pass and %d builds", stats, len(grid))
	}
	for i := range wantObs {
		want := observerPoints(t, wantObs[i])
		got := observerPoints(t, gotObs[i])
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("observer plan diverged for observer %d (%T)", i, wantObs[i])
		}
	}

	// Windowed: one whole-stream segment and one windowed segment.
	t0, t1, _ := s.Span()
	mid := (t0 + t1) / 2
	segs := func(obs []SweepObserver) []SegmentObserver {
		return []SegmentObserver{
			{Grid: grid, Observers: []SweepObserver{obs[0], obs[1]}},
			{Start: t0, End: mid, Grid: grid[:5], Observers: []SweepObserver{obs[2], obs[3], obs[4]}},
		}
	}
	wantObs = build()
	if err := sweep.RunWindowed(context.Background(), s, sweep.Options{}, segs(wantObs)...); err != nil {
		t.Fatal(err)
	}
	gotObs = build()
	runPlan(t, s, WithMetrics(), WithSegments(segs(gotObs)...))
	for i := range wantObs {
		if !reflect.DeepEqual(observerPoints(t, gotObs[i]), observerPoints(t, wantObs[i])) {
			t.Fatalf("segment plan diverged for observer %d (%T)", i, wantObs[i])
		}
	}
}

// observerPoints extracts the typed curve of any built-in observer.
func observerPoints(t *testing.T, o SweepObserver) any {
	t.Helper()
	switch obs := o.(type) {
	case *OccupancyObserver:
		return obs.Points()
	case *ClassicObserver:
		return obs.Points()
	case *TransitionLossObserver:
		return obs.Points()
	case *ElongationObserver:
		return obs.Points()
	case *DistanceObserver:
		return obs.Points()
	default:
		t.Fatalf("unknown observer type %T", o)
		return nil
	}
}
