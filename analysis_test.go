package repro

// Behavioural tests of the plan/run lifecycle: option validation, the
// typed Report, windows, progress streaming, engine statistics and
// plan immutability.

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/synth"
)

func twoModeWorkload(t testing.TB) *Stream {
	t.Helper()
	s, err := synth.TwoMode(synth.TwoModeConfig{
		Nodes: 16, N1: 20, N2: 1,
		T1: 20_000, T2: 40_000, Alternations: 3, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewAnalysisValidation(t *testing.T) {
	s := uniformWorkload(t)
	cases := []struct {
		name string
		s    *Stream
		opts []Option
	}{
		{"nil stream", nil, nil},
		{"empty stream", NewStream(), nil},
		{"empty grid", s, []Option{WithGrid()}},
		{"non-positive grid entry", s, []Option{WithGrid(10, 0)}},
		{"adaptive with windows", s, []Option{WithAdaptive(AdaptiveConfig{}), WithWindows(Window{Start: 0, End: 10})}},
		{"adaptive with explicit grid", s, []Option{WithAdaptive(AdaptiveConfig{}), WithGrid(1, 2)}},
		{"adaptive with segments", s, []Option{WithAdaptive(AdaptiveConfig{}), WithSegments(SegmentObserver{Grid: []int64{1}})}},
		{"nothing to compute", s, []Option{WithMetrics()}},
		{"window without metric", s, []Option{WithMetrics(), WithObservers(NewOccupancyObserver(nil)), WithWindows(Window{Start: 0, End: 10_000})}},
		{"empty window", s, []Option{WithWindows(Window{Start: 5, End: 5})}},
		{"bad window grid", s, []Option{WithWindows(Window{Start: 0, End: 10, Grid: []int64{-1}})}},
		{"unknown metric", s, []Option{WithMetrics(Metric(250))}},
	}
	for _, tc := range cases {
		if _, err := NewAnalysis(tc.s, tc.opts...); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	if _, err := NewAnalysis(NewStream()); err != ErrNoEvents {
		t.Errorf("empty stream error = %v, want ErrNoEvents", err)
	}
}

// TestNewAnalysisSizeLimits pins the allocation-size bounds: each
// option is accepted at its limit and rejected with ErrPlanTooLarge one
// past it, before any grid is built. Explicit grids and window lists
// are only tried one past the limit: a test cannot build a 1<<30-entry
// slice.
func TestNewAnalysisSizeLimits(t *testing.T) {
	s := uniformWorkload(t)
	t0, t1, _ := s.Span()
	grid := func(n int) []int64 {
		g := make([]int64, n)
		for i := range g {
			g[i] = int64(i + 1)
		}
		return g
	}
	windows := func(n int) Option {
		ws := make([]Window, n)
		for i := range ws {
			ws[i] = Window{Start: t0, End: t1 + 1, Grid: []int64{3600}}
		}
		return WithWindows(ws...)
	}
	for _, tc := range []struct {
		name     string
		opt      func(n int) Option
		max      int
		explicit bool
	}{
		{"grid points", WithGridPoints, MaxGridPoints, false},
		{"explicit grid", func(n int) Option { return WithGrid(grid(n)...) }, MaxGridPoints, true},
		{"window grid", func(n int) Option { return WithWindows(Window{Start: t0, End: t1 + 1, Grid: grid(n)}) }, MaxGridPoints, true},
		{"windows", windows, MaxWindows, true},
		{"refine", WithRefine, MaxRefine, false},
		{"adaptive bins", func(n int) Option { return WithAdaptive(AdaptiveConfig{Bins: n}) }, MaxAdaptiveBins, false},
	} {
		if _, err := NewAnalysis(s, tc.opt(tc.max)); err != nil {
			t.Errorf("%s at its limit %d: %v", tc.name, tc.max, err)
		}
		over := []int{tc.max + 1, 1 << 30}
		if tc.explicit {
			over = over[:1]
		}
		for _, n := range over {
			if _, err := NewAnalysis(s, tc.opt(n)); !errors.Is(err, ErrPlanTooLarge) {
				t.Errorf("%s %d: error %v, want ErrPlanTooLarge", tc.name, n, err)
			}
		}
	}
}

func TestParseMetrics(t *testing.T) {
	ms, err := ParseMetrics(" occupancy, loss,elongation ,")
	if err != nil {
		t.Fatal(err)
	}
	want := []Metric{MetricOccupancy, MetricTransitionLoss, MetricElongation}
	if !reflect.DeepEqual(ms, want) {
		t.Fatalf("ParseMetrics = %v, want %v", ms, want)
	}
	if _, err := ParseMetrics("occupancy,warp"); err == nil {
		t.Fatal("unknown metric should error")
	}
	for m := Metric(0); m < 5; m++ {
		round, err := ParseMetrics(m.String())
		if err != nil || len(round) != 1 || round[0] != m {
			t.Fatalf("metric %v does not round-trip: %v %v", m, round, err)
		}
	}
}

func TestPlanRunAllMetricsReport(t *testing.T) {
	s := uniformWorkload(t)
	grid := LogGrid(1, 50_000, 10)
	plan, err := NewAnalysis(s,
		WithMetrics(MetricOccupancy, MetricClassic, MetricDistance, MetricTransitionLoss, MetricElongation),
		WithGrid(grid...),
		WithRefine(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := plan.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res, ok := rep.Scale()
	if !ok || res.Gamma <= 0 {
		t.Fatalf("Scale = %+v ok=%v", res, ok)
	}
	if rep.Gamma() != res.Gamma {
		t.Fatalf("Gamma accessor mismatch")
	}
	if len(rep.Occupancy()) < len(grid) {
		t.Fatalf("occupancy curve %d points, want >= %d (refined)", len(rep.Occupancy()), len(grid))
	}
	// The non-occupancy curves see the unrefined grid.
	for name, n := range map[string]int{
		"classic":    len(rep.Classic()),
		"distance":   len(rep.Distances()),
		"loss":       len(rep.TransitionLoss()),
		"elongation": len(rep.Elongation()),
	} {
		if n != len(grid) {
			t.Fatalf("%s curve has %d points, want %d", name, n, len(grid))
		}
	}
	st := rep.EngineStats()
	if st.Passes != 2 {
		t.Fatalf("Passes = %d, want 2 (base + refine)", st.Passes)
	}
	if st.Builds == 0 || st.Periods == 0 {
		t.Fatalf("engine stats not populated: %+v", st)
	}
	if st.StreamBuilds != 1 {
		t.Fatalf("StreamBuilds = %d, want 1 (loss and elongation share the enumeration)", st.StreamBuilds)
	}
	// Every arena the two passes handed out came back.
	if st.ArenaHanded == 0 || st.ArenaHanded != st.ArenaRecycled {
		t.Fatalf("arena accounting off: %+v", st)
	}
}

func TestPlanRunWindows(t *testing.T) {
	s := twoModeWorkload(t)
	t0, t1, _ := s.Span()
	mid := (t0 + t1) / 2
	plan, err := NewAnalysis(s,
		WithMetrics(MetricOccupancy, MetricTransitionLoss),
		WithGridPoints(8),
		WithWindows(
			Window{Start: t0, End: mid},
			Window{Start: mid, End: t1 + 1, Grid: LogGrid(1, 1000, 6)},
		),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := plan.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.NumWindows() != 2 {
		t.Fatalf("NumWindows = %d, want 2", rep.NumWindows())
	}
	for i, w := range rep.Windows() {
		if w.Scale.Gamma <= 0 {
			t.Fatalf("window %d: no scale: %+v", i, w.Scale)
		}
		if len(w.Curves.Occupancy) == 0 || len(w.Curves.TransitionLoss) == 0 {
			t.Fatalf("window %d: missing curves", i)
		}
	}
	if got := rep.Window(1); len(got.Curves.TransitionLoss) != 6 {
		t.Fatalf("window 1 loss curve %d points, want 6 (explicit grid)", len(got.Curves.TransitionLoss))
	}

	// A window's analysis must be exactly the whole-stream analysis of
	// the window's sub-stream.
	sub := s.SliceTime(rep.Window(0).Start, rep.Window(0).End)
	subPlan, err := NewAnalysis(sub, WithMetrics(MetricOccupancy, MetricTransitionLoss), WithGridPoints(8))
	if err != nil {
		t.Fatal(err)
	}
	subRep, err := subPlan.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Window(0).Scale, func() Result { r, _ := subRep.Scale(); return r }()) {
		t.Fatalf("window scale diverges from sub-stream scale:\n%+v\nvs\n%+v", rep.Window(0).Scale, subRep)
	}
	if !reflect.DeepEqual(rep.Window(0).Curves.TransitionLoss, subRep.TransitionLoss()) {
		t.Fatal("window loss curve diverges from sub-stream loss curve")
	}
}

func TestPlanRunAdaptiveReport(t *testing.T) {
	s := twoModeWorkload(t)
	plan, err := NewAnalysis(s,
		WithAdaptive(AdaptiveConfig{Bins: 60}),
		WithGridPoints(10),
		WithMetrics(MetricOccupancy, MetricClassic, MetricTransitionLoss),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := plan.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	a := rep.Adaptive()
	if a == nil {
		t.Fatal("no adaptive analysis")
	}
	if rep.Gamma() != a.GlobalGamma {
		t.Fatalf("Gamma = %d, want the adaptive global gamma %d", rep.Gamma(), a.GlobalGamma)
	}
	if len(rep.Classic()) == 0 {
		t.Fatal("classic curve missing from the adaptive global pass")
	}
	if len(rep.Occupancy()) == 0 {
		t.Fatal("occupancy curve missing")
	}
	if st := rep.EngineStats(); st.Passes == 0 || st.Builds == 0 {
		t.Fatalf("engine stats not populated: %+v", st)
	}
	// Metric observers ride the global scope only: the loss curve's
	// raw-stream trips are enumerated once, for the whole stream, not
	// again for each activity segment.
	if n := rep.EngineStats().StreamBuilds; n != 1 {
		t.Fatalf("StreamBuilds = %d, want 1 (segment scopes carry no metric observers)", n)
	}
}

func TestPlanProgressAcrossPasses(t *testing.T) {
	s := uniformWorkload(t)
	var mu sync.Mutex
	var events []ProgressEvent
	plan, err := NewAnalysis(s,
		WithGrid(LogGrid(1, 50_000, 8)...),
		WithRefine(4),
		WithProgress(func(ev ProgressEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events")
	}
	maxPass := 0
	done := map[int]int{}
	total := map[int]int{}
	for _, ev := range events {
		if ev.Pass > maxPass {
			maxPass = ev.Pass
		}
		if ev.Stage == ProgressPeriod {
			done[ev.Pass] = ev.PeriodsDone
		}
		total[ev.Pass] = ev.PeriodsTotal
	}
	if maxPass != 1 {
		t.Fatalf("max pass = %d, want 1 (refinement round)", maxPass)
	}
	for pass, tot := range total {
		if done[pass] != tot {
			t.Fatalf("pass %d: PeriodsDone %d never reached PeriodsTotal %d", pass, done[pass], tot)
		}
	}
}

// TestPlanImmutable: mutating the slices handed to the options after
// NewAnalysis must not change what the plan computes.
func TestPlanImmutable(t *testing.T) {
	s := uniformWorkload(t)
	grid := LogGrid(1, 50_000, 8)
	win := Window{Start: 0, End: 25_000, Grid: []int64{5, 50, 500}}
	plan, err := NewAnalysis(s, WithMetrics(MetricOccupancy), WithGrid(grid...), WithWindows(win))
	if err != nil {
		t.Fatal(err)
	}
	refPlan, err := NewAnalysis(s, WithMetrics(MetricOccupancy),
		WithGrid(LogGrid(1, 50_000, 8)...), WithWindows(Window{Start: 0, End: 25_000, Grid: []int64{5, 50, 500}}))
	if err != nil {
		t.Fatal(err)
	}
	for i := range grid {
		grid[i] = 1 // stomp the caller-owned slices
	}
	win.Grid[0] = 999

	got, err := plan.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := refPlan.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Occupancy(), want.Occupancy()) {
		t.Fatal("plan results changed after mutating the caller's grid slice")
	}
	if !reflect.DeepEqual(got.Window(0), want.Window(0)) {
		t.Fatal("window results changed after mutating the caller's window grid")
	}
}

// TestPlanRerun: a Plan can be run repeatedly, each run independent and
// identical on an unchanged stream.
func TestPlanRerun(t *testing.T) {
	s := uniformWorkload(t)
	plan, err := NewAnalysis(s, WithGrid(LogGrid(1, 50_000, 8)...), WithRefine(2))
	if err != nil {
		t.Fatal(err)
	}
	first, err := plan.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	second, err := plan.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Occupancy(), second.Occupancy()) {
		t.Fatal("re-running an identical plan changed the results")
	}
}
