package adaptive_test

// The adaptive scales are computed by repro.WithAdaptive plans, so these
// tests drive the plan layer from the outside: every plan report must
// equal the per-segment AnalyzeReference bit for bit, and the engine
// instrumentation must show the fused execution (one pass per round,
// one CSR build per (scope, ∆)).

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro"
	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/linkstream"
	"repro/internal/sweep"
	"repro/internal/synth"
)

// heteroStream builds a seeded two-mode workload with random link
// orientation so directed analyses exercise both edge directions —
// mirroring internal/core/equivalence_test.go's mixedStream, with the
// burst structure the adaptive method exists for.
func heteroStream(t testing.TB, seed int64) *linkstream.Stream {
	t.Helper()
	cfgs := map[int64]synth.TwoModeConfig{
		1: {Nodes: 10, N1: 14, N2: 1, T1: 4000, T2: 6000, Alternations: 3, Seed: 1},
		2: {Nodes: 8, N1: 20, N2: 2, T1: 2500, T2: 2500, Alternations: 4, Seed: 2},
		3: {Nodes: 12, N1: 10, N2: 1, T1: 8000, T2: 4000, Alternations: 2, Seed: 3},
	}
	cfg, ok := cfgs[seed]
	if !ok {
		t.Fatalf("no stream config for seed %d", seed)
	}
	s, err := synth.TwoMode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Randomise orientation in place (TwoMode always emits U < V).
	rng := rand.New(rand.NewSource(seed))
	flipped := linkstream.New()
	flipped.EnsureNodes(s.NumNodes())
	for _, e := range s.Events() {
		u, v := e.U, e.V
		if rng.Intn(2) == 0 {
			u, v = v, u
		}
		if err := flipped.AddID(u, v, e.T); err != nil {
			t.Fatal(err)
		}
	}
	return flipped
}

// runPlan runs an adaptive plan over s and returns its report.
func runPlan(t *testing.T, s *linkstream.Stream, cfg adaptive.Config, opts ...repro.Option) *repro.Report {
	t.Helper()
	plan, err := repro.NewAnalysis(s, append(opts, repro.WithAdaptive(cfg))...)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := plan.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Adaptive() == nil {
		t.Fatal("adaptive plan returned no adaptive analysis")
	}
	return rep
}

// TestAnalyzeMatchesReference asserts an adaptive plan reproduces the
// per-segment AnalyzeReference exactly — same segments, same
// per-segment and global gammas, bit-equal score curves — across synth
// seeds, directed and undirected analyses, worker counts and in-flight
// bounds.
func TestAnalyzeMatchesReference(t *testing.T) {
	cfg := adaptive.Config{Bins: 60}
	for _, directed := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			s := heteroStream(t, seed)
			want, err := adaptive.AnalyzeReference(s, cfg, core.Options{Directed: directed}, 8, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 3} {
				for _, inFlight := range []int{1, 2, 0} {
					got := runPlan(t, s, cfg, repro.WithGridPoints(8), repro.WithDirected(directed),
						repro.WithWorkers(workers), repro.WithMaxInFlight(inFlight)).Adaptive()
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("directed=%v seed=%d workers=%d inflight=%d:\n got %+v\nwant %+v",
							directed, seed, workers, inFlight, got, want)
					}
				}
			}
		}
	}
}

// TestAnalyzeMatchesReferenceRefine covers the multi-round protocol:
// with refinement each search stages a second, refined grid, so the
// plan runs a second fused pass — still bit-equal to the reference's
// refined per-segment passes.
func TestAnalyzeMatchesReferenceRefine(t *testing.T) {
	s := heteroStream(t, 2)
	cfg := adaptive.Config{Bins: 60}
	want, err := adaptive.AnalyzeReference(s, cfg, core.Options{Refine: 4, Workers: 2}, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := runPlan(t, s, cfg, repro.WithGridPoints(8), repro.WithRefine(4), repro.WithWorkers(2)).Adaptive()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("refined analysis diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestAnalyzeOneEnginePass pins the fused execution with the engine's
// instrumentation: the whole adaptive analysis — global sweep plus
// every segment sweep — is one engine pass, and each (segment, ∆) CSR
// is built exactly once.
func TestAnalyzeOneEnginePass(t *testing.T) {
	s := heteroStream(t, 1)
	cfg := adaptive.Config{Bins: 60}
	const points = 8

	// Expected build count: one CSR per (scope, grid entry).
	segs, _, err := adaptive.Segments(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Sort()
	events := s.Events()
	wantBuilds := int64(len(core.LogGrid(s.Resolution(), s.Duration(), points)))
	analysed := 0
	for _, seg := range segs {
		sub := linkstream.WindowEvents(events, seg.Start, seg.End)
		if len(sub) < adaptive.MinSegmentEvents {
			continue
		}
		analysed++
		wantBuilds += int64(len(core.LogGrid(linkstream.EventsResolution(sub), linkstream.EventsDuration(sub), points)))
	}
	if analysed < 2 {
		t.Fatalf("workload too small: only %d analysed segments", analysed)
	}

	st := runPlan(t, s, cfg, repro.WithGridPoints(points)).EngineStats()
	if st.Passes != 1 {
		t.Fatalf("adaptive plan performed %d engine passes, want exactly 1", st.Passes)
	}
	if st.Builds != wantBuilds {
		t.Fatalf("adaptive plan built %d period CSRs, want %d (one per (segment, delta))", st.Builds, wantBuilds)
	}

	// The reference pays one engine pass per analysed segment plus one
	// for the global sweep.
	sweep.ResetBuildStats()
	if _, err := adaptive.AnalyzeReference(s, cfg, core.Options{}, points, 0); err != nil {
		t.Fatal(err)
	}
	if runs := sweep.RunCount(); runs != int64(1+analysed) {
		t.Fatalf("reference performed %d engine passes, want %d", runs, 1+analysed)
	}
}

// TestAnalyzeHomogeneousDedup pins the (window, ∆) dedup on the case
// the engine optimises for: a homogeneous stream's single activity
// segment covers exactly the global scope with the same grid, so the
// fused pass builds each period's CSR once and fans it to both scopes,
// while the per-segment gamma stays bit-identical to the global one.
func TestAnalyzeHomogeneousDedup(t *testing.T) {
	s, err := synth.TimeUniform(synth.TimeUniformConfig{
		Nodes: 10, LinksPerPair: 8, T: 10_000, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	const points = 12
	want, err := adaptive.AnalyzeReference(s, adaptive.Config{}, core.Options{}, points, 0)
	if err != nil {
		t.Fatal(err)
	}
	grid := core.LogGrid(s.Resolution(), s.Duration(), points)
	rep := runPlan(t, s, adaptive.Config{}, repro.WithGridPoints(points))
	got, st := rep.Adaptive(), rep.EngineStats()
	if got.TwoMode || len(got.Segments) != 1 {
		t.Fatalf("uniform stream misclassified: %+v", got.Segments)
	}
	if st.Passes != 1 {
		t.Fatalf("adaptive plan performed %d engine passes, want 1", st.Passes)
	}
	if st.Builds != int64(len(grid)) {
		t.Fatalf("homogeneous adaptive plan built %d period CSRs, want %d (global and segment scopes coincide)",
			st.Builds, len(grid))
	}
	if st.Dedups != int64(len(grid)) {
		t.Fatalf("Dedups = %d, want %d", st.Dedups, len(grid))
	}
	if got.Segments[0].Gamma != got.GlobalGamma {
		t.Fatalf("deduplicated scopes diverged: segment gamma %d, global %d",
			got.Segments[0].Gamma, got.GlobalGamma)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("dedup changed the analysis:\n got %+v\nwant %+v", got, want)
	}
}

// TestAnalyzeWithGlobalObservers checks the custom observers of an
// adaptive plan see the whole stream and exactly the global grid.
func TestAnalyzeWithGlobalObservers(t *testing.T) {
	s := heteroStream(t, 3)
	obs := repro.NewDistanceObserver()
	a := runPlan(t, s, adaptive.Config{Bins: 60}, repro.WithGridPoints(8), repro.WithObservers(obs)).Adaptive()
	pts := obs.Points()
	if len(pts) != len(a.Global.Points) {
		t.Fatalf("observer saw %d periods, global grid has %d", len(pts), len(a.Global.Points))
	}
	for i, p := range pts {
		if p.Delta != a.Global.Points[i].Delta {
			t.Fatalf("period %d: observer delta %d, global delta %d", i, p.Delta, a.Global.Points[i].Delta)
		}
		if p.FinitePairs == 0 {
			t.Fatalf("period %d: no finite distances recorded", i)
		}
	}
}

// TestAnalyzeRefinedTwoPassesMatchReference pins the refined plan:
// batching the refinement grids of every active search into one
// second pass returns exactly the reference analysis (which drives the
// same searches one stream at a time) in exactly two engine passes.
func TestAnalyzeRefinedTwoPassesMatchReference(t *testing.T) {
	s := heteroStream(t, 2)
	cfg := adaptive.Config{Bins: 60}
	want, err := adaptive.AnalyzeReference(s, cfg, core.Options{Refine: 3, Workers: 2}, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep := runPlan(t, s, cfg, repro.WithGridPoints(8), repro.WithRefine(3), repro.WithWorkers(2))
	if got := rep.Adaptive(); !reflect.DeepEqual(got, want) {
		t.Fatalf("refined adaptive plan diverged:\n got %+v\nwant %+v", got, want)
	}
	if passes := rep.EngineStats().Passes; passes != 2 {
		t.Fatalf("refined adaptive plan performed %d engine passes, want 2", passes)
	}
}

func TestAnalyzeTwoMode(t *testing.T) {
	// Dense and sparse halves with a sharp rate contrast, so the
	// segmentation ground truth is known.
	s, err := synth.TwoMode(synth.TwoModeConfig{
		Nodes: 12, N1: 20, N2: 1, T1: 5000, T2: 5000, Alternations: 4, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := runPlan(t, s, adaptive.Config{Bins: 80}, repro.WithGridPoints(12)).Adaptive()
	if !a.TwoMode {
		t.Fatal("two-mode not detected")
	}
	if a.GlobalGamma <= 0 {
		t.Fatalf("global gamma = %d", a.GlobalGamma)
	}
	if a.MinGamma > a.GlobalGamma {
		t.Fatalf("min gamma %d exceeds global %d", a.MinGamma, a.GlobalGamma)
	}
	// Paper's motivation: the high-activity mode needs a smaller scale
	// than the low-activity mode.
	var hiGamma, loGamma int64
	for _, seg := range a.Segments {
		if seg.Gamma == 0 {
			continue
		}
		if seg.HighActivity && (hiGamma == 0 || seg.Gamma < hiGamma) {
			hiGamma = seg.Gamma
		}
		if !seg.HighActivity && seg.Gamma > loGamma {
			loGamma = seg.Gamma
		}
	}
	if hiGamma == 0 {
		t.Fatalf("no analysed high-activity segment: %+v", a.Segments)
	}
	if loGamma > 0 && hiGamma >= loGamma {
		t.Fatalf("high-activity gamma %d should be below low-activity gamma %d", hiGamma, loGamma)
	}
}

func TestAnalyzeHomogeneousMatchesGlobal(t *testing.T) {
	s, err := synth.TimeUniform(synth.TimeUniformConfig{
		Nodes: 10, LinksPerPair: 8, T: 10_000, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := runPlan(t, s, adaptive.Config{}, repro.WithGridPoints(12)).Adaptive()
	if a.TwoMode {
		t.Fatal("uniform stream misclassified")
	}
	if len(a.Segments) != 1 {
		t.Fatalf("segments = %d", len(a.Segments))
	}
	// The single segment covers the whole stream, so its gamma should
	// be close to the global one (grids differ slightly at endpoints).
	seg := a.Segments[0].Gamma
	if seg == 0 {
		t.Fatal("segment not analysed")
	}
	ratio := float64(seg) / float64(a.GlobalGamma)
	if ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("segment gamma %d too far from global %d", seg, a.GlobalGamma)
	}
}
