package adaptive

import (
	"context"

	"math/rand"
	"reflect"
	"testing"

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

// TestAnalyzeMatchesReference asserts the fused windowed-engine
// Analyze reproduces the retained per-segment AnalyzeReference exactly
// — same segments, same per-segment and global gammas, bit-equal score
// curves — across synth seeds, directed and undirected analyses,
// worker counts and in-flight bounds.
func TestAnalyzeMatchesReference(t *testing.T) {
	for _, directed := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			s := heteroStream(t, seed)
			cfg := Config{Bins: 60, GridPoints: 8, Directed: directed}
			want, err := AnalyzeReference(s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 3} {
				for _, inFlight := range []int{1, 2, 0} {
					cfg := cfg
					cfg.Workers = workers
					cfg.MaxInFlight = inFlight
					got, err := Analyze(context.Background(), s, cfg)
					if err != nil {
						t.Fatal(err)
					}
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
// with Refine > 0 each search stages a second, refined grid, so the
// fused path batches two (or more) RunWindowed passes — still
// bit-equal to the reference's refined per-segment passes.
func TestAnalyzeMatchesReferenceRefine(t *testing.T) {
	s := heteroStream(t, 2)
	cfg := Config{Bins: 60, GridPoints: 8, Refine: 4, Workers: 2}
	want, err := AnalyzeReference(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Analyze(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("refined analysis diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestAnalyzeOneEnginePass pins the tentpole guarantee with the
// engine's instrumentation: the whole adaptive analysis — global sweep
// plus every segment sweep — is one engine pass, and each (segment, ∆)
// CSR is built exactly once.
func TestAnalyzeOneEnginePass(t *testing.T) {
	s := heteroStream(t, 1)
	cfg := Config{Bins: 60, GridPoints: 8}.withDefaults()

	// Expected build count: one CSR per (scope, grid entry).
	segs, _, err := Segments(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Sort()
	events := s.Events()
	wantBuilds := int64(len(core.LogGrid(s.Resolution(), s.Duration(), cfg.GridPoints)))
	analysed := 0
	for _, seg := range segs {
		sub := linkstream.WindowEvents(events, seg.Start, seg.End)
		if len(sub) < minSegmentEvents {
			continue
		}
		analysed++
		wantBuilds += int64(len(core.LogGrid(linkstream.EventsResolution(sub), linkstream.EventsDuration(sub), cfg.GridPoints)))
	}
	if analysed < 2 {
		t.Fatalf("workload too small: only %d analysed segments", analysed)
	}

	sweep.ResetBuildStats()
	if _, err := Analyze(context.Background(), s, cfg); err != nil {
		t.Fatal(err)
	}
	if runs := sweep.RunCount(); runs != 1 {
		t.Fatalf("Analyze performed %d engine passes, want exactly 1", runs)
	}
	if builds, _ := sweep.BuildStats(); builds != wantBuilds {
		t.Fatalf("Analyze built %d period CSRs, want %d (one per (segment, delta))", builds, wantBuilds)
	}

	// The reference pays one engine pass per analysed segment plus one
	// for the global sweep.
	sweep.ResetBuildStats()
	if _, err := AnalyzeReference(s, cfg); err != nil {
		t.Fatal(err)
	}
	if runs := sweep.RunCount(); runs != int64(1+analysed) {
		t.Fatalf("reference performed %d engine passes, want %d", runs, 1+analysed)
	}
}

// TestAnalyzeHomogeneousDedup pins the (window, ∆) dedup on the case
// the engine optimises for: a homogeneous stream's single activity
// segment covers exactly the global scope with the same grid, so the
// fused pass builds each period's CSR once and fans it to both scopes —
// half the builds of the pre-dedup engine — while the per-segment gamma
// stays bit-identical to the global one.
func TestAnalyzeHomogeneousDedup(t *testing.T) {
	s, err := synth.TimeUniform(synth.TimeUniformConfig{
		Nodes: 10, LinksPerPair: 8, T: 10_000, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{GridPoints: 12}
	want, err := AnalyzeReference(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	grid := core.LogGrid(s.Resolution(), s.Duration(), cfg.withDefaults().GridPoints)
	sweep.ResetBuildStats()
	got, err := Analyze(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.TwoMode || len(got.Segments) != 1 {
		t.Fatalf("uniform stream misclassified: %+v", got.Segments)
	}
	if runs := sweep.RunCount(); runs != 1 {
		t.Fatalf("Analyze performed %d engine passes, want 1", runs)
	}
	if builds, _ := sweep.BuildStats(); builds != int64(len(grid)) {
		t.Fatalf("homogeneous Analyze built %d period CSRs, want %d (global and segment scopes coincide)",
			builds, len(grid))
	}
	if d := sweep.DedupCount(); d != int64(len(grid)) {
		t.Fatalf("DedupCount = %d, want %d", d, len(grid))
	}
	if got.Segments[0].Gamma != got.GlobalGamma {
		t.Fatalf("deduplicated scopes diverged: segment gamma %d, global %d",
			got.Segments[0].Gamma, got.GlobalGamma)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("dedup changed the analysis:\n got %+v\nwant %+v", got, want)
	}
}

// TestAnalyzeWithGlobalObservers checks the extra observers of
// AnalyzeWith see the whole stream and exactly the global grid.
func TestAnalyzeWithGlobalObservers(t *testing.T) {
	s := heteroStream(t, 3)
	cfg := Config{Bins: 60, GridPoints: 8}
	obs := sweep.NewDistanceObserver()
	a, err := AnalyzeWith(context.Background(), s, cfg, obs)
	if err != nil {
		t.Fatal(err)
	}
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

// TestAnalyzeRefinedLaneWidthsMatchReference pins the fused refined
// path: batching the refinement grids of every active search into one
// RunWindowed pass returns exactly the reference analysis (which
// drives the same searches one stream at a time), for every lane
// width.
func TestAnalyzeRefinedLaneWidthsMatchReference(t *testing.T) {
	s := heteroStream(t, 2)
	cfg := Config{Bins: 60, GridPoints: 8, Refine: 3, Workers: 2}
	want, err := AnalyzeReference(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{0, 4, 8} {
		cfg := cfg
		cfg.LaneWidth = width
		got, err := Analyze(context.Background(), s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("width=%d: refined fused analysis diverged:\n got %+v\nwant %+v", width, got, want)
		}
	}
}
