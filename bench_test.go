package repro

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (deliverable d). One benchmark per experiment,
// using the quick profile so a full -bench=. pass stays in minutes;
// run `go run ./cmd/tsfigures` for the paper-scale numbers. The
// Ablation* benchmarks measure the design choices called out in
// DESIGN.md §6.

import (
	"bytes"
	"context"

	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/adaptive"
	"repro/internal/classic"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/dist"
	"repro/internal/figures"
	"repro/internal/linkstream"
	"repro/internal/sweep"
	"repro/internal/synth"
	"repro/internal/temporal"
	"repro/internal/validate"
)

func benchProfile() figures.Profile { return figures.QuickProfile() }

// BenchmarkTable1SaturationScales regenerates Table 1: the saturation
// scale of each of the four dataset stand-ins.
func BenchmarkTable1SaturationScales(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := figures.Table1(benchProfile()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2ClassicalProperties regenerates Figure 2: density,
// connectedness and distance curves across aggregation periods.
func BenchmarkFig2ClassicalProperties(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := figures.Fig2(benchProfile()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3OccupancyIrvine regenerates Figure 3: occupancy ICDs and
// the M-K proximity curve for the Irvine stand-in.
func BenchmarkFig3OccupancyIrvine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := figures.Fig3(benchProfile()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4OccupancyICDs and BenchmarkFig5MKProximity regenerate
// Figures 4 and 5 (same computation, different panels).
func BenchmarkFig4OccupancyICDs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := figures.Fig45(benchProfile())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Discard.Write([]byte(r.RenderICDs())); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5MKProximity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := figures.Fig45(benchProfile())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Discard.Write([]byte(r.RenderProximity())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6TimeUniform regenerates Figure 6 left: γ vs mean
// inter-contact time on time-uniform networks.
func BenchmarkFig6TimeUniform(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := figures.Fig6Left(benchProfile()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6TwoMode regenerates Figure 6 right: γ vs low-activity
// fraction on two-mode networks.
func BenchmarkFig6TwoMode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := figures.Fig6Right(benchProfile()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7SelectorComparison regenerates Figure 7: the five
// selection methods on one dataset.
func BenchmarkFig7SelectorComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := figures.Fig7(benchProfile()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8TransitionsLost and BenchmarkFig8Elongation regenerate
// the two Figure 8 validation panels (one computation).
func BenchmarkFig8TransitionsLost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := figures.Fig8(benchProfile())
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Loss) == 0 {
			b.Fatal("no loss points")
		}
	}
}

func BenchmarkFig8Elongation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := figures.Fig8(benchProfile())
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Elongation) == 0 {
			b.Fatal("no elongation points")
		}
	}
}

// --- Ablation benchmarks (DESIGN.md §6) ---

func irvineStream(b *testing.B) *Stream {
	b.Helper()
	s, err := datasets.Irvine().Stream()
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkAblationSweepSequential vs BenchmarkAblationSweepParallel:
// the per-destination worker pool of the temporal engine.
func BenchmarkAblationSweepSequential(b *testing.B) {
	s := irvineStream(b)
	grid := core.LogGrid(3600, s.Duration(), 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Sweep(context.Background(), s, grid, core.Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSweepParallel(b *testing.B) {
	s := irvineStream(b)
	grid := core.LogGrid(3600, s.Duration(), 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Sweep(context.Background(), s, grid, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMKExact vs BenchmarkAblationMKHistogram: exact
// piecewise M-K integration over the sorted sample vs the fixed-bin
// streaming approximation.
func BenchmarkAblationMKExact(b *testing.B) {
	s := irvineStream(b)
	grid := core.LogGrid(3600, s.Duration(), 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Sweep(context.Background(), s, grid, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationMKHistogram(b *testing.B) {
	s := irvineStream(b)
	grid := core.LogGrid(3600, s.Duration(), 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Sweep(context.Background(), s, grid, core.Options{HistogramBins: 2048}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationGridRefinement: coarse grid plus refinement vs a
// dense grid of equivalent resolution.
func BenchmarkAblationGridCoarseRefined(b *testing.B) {
	s := irvineStream(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := core.SaturationScale(context.Background(), s, core.Options{
			Grid: core.LogGrid(3600, s.Duration(), 8), Refine: 6,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationGridDense(b *testing.B) {
	s := irvineStream(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := core.SaturationScale(context.Background(), s, core.Options{
			Grid: core.LogGrid(3600, s.Duration(), 14),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiSweepAllMetrics vs BenchmarkMultiSweepSeparatePasses:
// the unified observer engine. The fused run computes the occupancy
// curve, the classical Figure 2 properties, the transition-loss curve
// and the elongation curve in one engine pass (each period's CSR built
// and swept once, the raw stream's trips enumerated once); the
// separate-passes run computes the same four curves with the retained
// seed single-metric implementations (core.SweepReference,
// classic.CurveReference, validate.*CurveReference) — four passes over
// the stream, each rebuilding its own period arenas — which is what
// figures.RunAll paid before the engine existed.
// BenchmarkMultiSweepSeparateWrappers is the tighter comparison against
// the current engine-backed entry points called one metric at a time.
func BenchmarkMultiSweepAllMetrics(b *testing.B) {
	s := irvineStream(b)
	grid := core.LogGrid(3600, s.Duration(), 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		occ := core.NewOccupancyObserver(nil)
		cls := classic.NewObserver()
		loss := validate.NewTransitionLossObserver()
		elong := validate.NewElongationObserver()
		if err := sweep.Run(context.Background(), s, grid, sweep.Options{}, occ, cls, loss, elong); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanRunAllMetrics is the plan/run lifecycle computing the
// same four curves as BenchmarkMultiSweepAllMetrics: one NewAnalysis
// plan, one fused Plan.Run pass. CI pairs the two (tsbench -pair), so
// the plan path may never regress against the raw engine entry point
// it wraps.
func BenchmarkPlanRunAllMetrics(b *testing.B) {
	s := irvineStream(b)
	grid := core.LogGrid(3600, s.Duration(), 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := NewAnalysis(s,
			WithMetrics(MetricOccupancy, MetricClassic, MetricTransitionLoss, MetricElongation),
			WithGrid(grid...),
		)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := plan.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultiSweepSeparatePasses(b *testing.B) {
	s := irvineStream(b)
	grid := core.LogGrid(3600, s.Duration(), 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SweepReference(s, grid, core.Options{}); err != nil {
			b.Fatal(err)
		}
		if _, err := classic.CurveReference(s, grid, classic.Options{}); err != nil {
			b.Fatal(err)
		}
		if _, err := validate.TransitionLossCurveReference(s, grid, validate.Options{}); err != nil {
			b.Fatal(err)
		}
		if _, err := validate.ElongationCurveReference(s, grid, validate.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultiSweepSeparateWrappers(b *testing.B) {
	s := irvineStream(b)
	grid := core.LogGrid(3600, s.Duration(), 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Sweep(context.Background(), s, grid, core.Options{}); err != nil {
			b.Fatal(err)
		}
		if _, err := classic.Curve(context.Background(), s, grid, classic.Options{}); err != nil {
			b.Fatal(err)
		}
		if _, err := validate.TransitionLossCurve(context.Background(), s, grid, validate.Options{}); err != nil {
			b.Fatal(err)
		}
		if _, err := validate.ElongationCurve(context.Background(), s, grid, validate.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepLanes4 vs BenchmarkSweepLanes8: the hardware-width
// relax/commit kernels on the same fused all-metrics pass. Results are
// bit-identical (the width equivalence suites pin that); the delta is
// pure kernel throughput — register pressure and cache-line use of the
// lane-major state blocks. CI pairs the two so neither width silently
// regresses against the other.
func benchSweepLanes(b *testing.B, width int) {
	s := irvineStream(b)
	grid := core.LogGrid(3600, s.Duration(), 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		occ := core.NewOccupancyObserver(nil)
		cls := classic.NewObserver()
		if err := sweep.Run(context.Background(), s, grid, sweep.Options{LaneWidth: width}, occ, cls); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepLanes4(b *testing.B) { benchSweepLanes(b, 4) }
func BenchmarkSweepLanes8(b *testing.B) { benchSweepLanes(b, 8) }

// BenchmarkStreamingTrips: the raw-stream trip runs and the sharded
// per-period trip scans feeding the Section 8 validation observers in
// one fused pass — per-destination runs encoded into the elongation
// pair-span arena, two-hop spans kept for the transition loss, each
// period's trips scored block by block on the worker that swept them.
// Peak trip allocations scale with the in-flight runs and blocks
// (lanes recycled block by block), not with the stream's total trip
// population.
func BenchmarkStreamingTrips(b *testing.B) {
	s := irvineStream(b)
	grid := core.LogGrid(3600, s.Duration(), 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loss := validate.NewTransitionLossObserver()
		elong := validate.NewElongationObserver()
		if err := sweep.Run(context.Background(), s, grid, sweep.Options{MaxInFlight: 2}, loss, elong); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWindowedDedup vs BenchmarkWindowedDedupSeparatePasses: two
// scopes requesting the same window and grid (the homogeneous-stream
// shape: single activity segment == global scope). The fused run builds
// each period's CSR once and fans it to both scopes; the separate
// passes pay every build and sweep twice.
func BenchmarkWindowedDedup(b *testing.B) {
	s := irvineStream(b)
	t0, t1, _ := s.Span()
	grid := core.LogGrid(3600, s.Duration(), 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		occA := core.NewOccupancyObserver(nil)
		occB := core.NewOccupancyObserver(nil)
		err := sweep.RunWindowed(context.Background(), s, sweep.Options{},
			sweep.SegmentObserver{Grid: grid, Observers: []sweep.Observer{occA}},
			sweep.SegmentObserver{Start: t0, End: t1 + 1, Grid: grid, Observers: []sweep.Observer{occB}})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWindowedDedupSeparatePasses(b *testing.B) {
	s := irvineStream(b)
	grid := core.LogGrid(3600, s.Duration(), 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for pass := 0; pass < 2; pass++ {
			occ := core.NewOccupancyObserver(nil)
			if err := sweep.Run(context.Background(), s, grid, sweep.Options{}, occ); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Microbenchmarks of the hot paths ---

// BenchmarkEngineMinimalTrips measures the backward DP sweep alone.
func BenchmarkEngineMinimalTrips(b *testing.B) {
	s := irvineStream(b)
	g, err := Aggregate(s, 6*3600, false)
	if err != nil {
		b.Fatal(err)
	}
	layers := temporal.SeriesLayers(g)
	cfg := temporal.Config{N: g.N}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		occ := temporal.Occupancies(cfg, layers)
		if len(occ) == 0 {
			b.Fatal("no trips")
		}
	}
}

// BenchmarkEngineDistances measures the Figure 2 distance sweep alone.
func BenchmarkEngineDistances(b *testing.B) {
	s := irvineStream(b)
	g, err := Aggregate(s, 6*3600, false)
	if err != nil {
		b.Fatal(err)
	}
	layers := temporal.SeriesLayers(g)
	cfg := temporal.Config{N: g.N}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := temporal.Distances(cfg, layers, 0, 1)
		if d.Count == 0 {
			b.Fatal("no distances")
		}
	}
}

// BenchmarkMKDistance measures the exact M-K integration.
func BenchmarkMKDistance(b *testing.B) {
	s := irvineStream(b)
	sample, err := OccupancyDistribution(s, 6*3600, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := sample.MKDistance(); d < 0 {
			b.Fatal("negative distance")
		}
	}
}

// BenchmarkOccupancySampleFine and BenchmarkOccupancySampleCoarse
// measure building the exact occupancy sample (dist.NewSample) alone,
// in its two regimes: at the stream's resolution about half of the
// occupancies are distinct, at one hour a few thousand values repeat
// many times.
func BenchmarkOccupancySampleFine(b *testing.B) {
	s := irvineStream(b)
	benchOccupancySample(b, s, s.Resolution())
}

func BenchmarkOccupancySampleCoarse(b *testing.B) {
	benchOccupancySample(b, irvineStream(b), 3600)
}

func benchOccupancySample(b *testing.B, s *Stream, delta int64) {
	s.Sort()
	events := linkstream.Canonical(s.Events())
	var scratch temporal.CSRScratch
	c := temporal.BuildCSR(events, events[0].T, delta, &scratch)
	occ := temporal.OccupanciesCSR(temporal.Config{N: s.NumNodes()}, c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dist.NewSample(occ); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAggregate measures window building and per-window dedup.
func BenchmarkAggregate(b *testing.B) {
	s := irvineStream(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Aggregate(s, 3600, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerators measures the synthetic workload generators.
func BenchmarkGeneratorTimeUniform(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := synth.TimeUniform(synth.TimeUniformConfig{
			Nodes: 50, LinksPerPair: 10, T: 100_000, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGeneratorMessageNetwork(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := synth.MessageNetwork(synth.MessageConfig{
			Nodes: 100, Days: 30, MsgsPerPersonDay: 1, Seed: int64(i),
			ActivityExponent: 0.8, Reciprocity: 0.3, PartnerAffinity: 0.6,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectorScores measures the five Section 7 metrics on one
// occupancy sample.
func BenchmarkSelectorScores(b *testing.B) {
	s := irvineStream(b)
	sample, err := OccupancyDistribution(s, 6*3600, Options{})
	if err != nil {
		b.Fatal(err)
	}
	sels := dist.AllSelectors()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sel := range sels {
			_ = sel.Score(sample)
		}
	}
}

// adaptiveBenchStream is the two-mode benchmark workload of the
// adaptive analysis benchmarks.
func adaptiveBenchStream(b *testing.B) *Stream {
	b.Helper()
	s, err := synth.TwoMode(synth.TwoModeConfig{
		Nodes: 16, N1: 12, N2: 1, T1: 10_000, T2: 10_000, Alternations: 4, Seed: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkAdaptiveAnalyze vs BenchmarkAdaptiveAnalyzeReference: the
// adaptive plan (one fused engine pass serving the global sweep and
// every segment sweep) against the per-segment reference
// implementation (one core.SaturationScale pass per segment plus one
// global pass). Both compute bit-identical results — the plan tests in
// internal/adaptive pin that — so the delta is pure engine-pass
// overhead: repeated canonicalisation, worker-pool spin-up, and the
// lost cross-segment parallelism.
func BenchmarkAdaptiveAnalyze(b *testing.B) {
	s := adaptiveBenchStream(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := NewAnalysis(s, WithAdaptive(AdaptiveConfig{}), WithGridPoints(10))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := plan.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAdaptiveAnalyzeReference(b *testing.B) {
	s := adaptiveBenchStream(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := adaptive.AnalyzeReference(s, adaptive.Config{}, core.Options{}, 10, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCSRBuild measures the flat-arena aggregation pass alone:
// bucketing the sorted canonical event buffer into one period's CSR
// with sort-and-compact dedup.
func BenchmarkCSRBuild(b *testing.B) {
	s := irvineStream(b)
	s.Sort()
	events := linkstream.Canonical(s.Events())
	t0 := events[0].T
	var scratch temporal.CSRScratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := temporal.BuildCSR(events, t0, 3600, &scratch)
		if c.NumLayers() == 0 {
			b.Fatal("no layers")
		}
	}
}

// BenchmarkEngineMinimalTripsPrebuilt measures the backward DP sweep on
// a prebuilt CSR arena, isolating the sweep from layer conversion.
func BenchmarkEngineMinimalTripsPrebuilt(b *testing.B) {
	s := irvineStream(b)
	g, err := Aggregate(s, 6*3600, false)
	if err != nil {
		b.Fatal(err)
	}
	c := SeriesCSR(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		occ := CSROccupancies(c, g.N, false)
		if len(occ) == 0 {
			b.Fatal("no trips")
		}
	}
}

// --- Ingest benchmarks (out-of-core columnar linkstream) ---
//
// One synthetic message trace (~180k events), three ways into the
// engine: parsing the text edge list (IngestText), decoding the
// columnar file streamed into memory (IngestColumnar), and handing the
// engine the memory-mapped columnar view directly (IngestMapped —
// zero-parse, columns addressed in place). CI pairs the three
// (tsbench -pair): mapped may never cost more than the streamed
// decode, and the streamed decode may never cost more than the text
// parse. IngestMappedWindow measures the windowed promise: a ~1% slice
// resolved through the skip index touches only its own span.

var (
	ingestOnce     sync.Once
	ingestText     []byte
	ingestColumnar []byte
	ingestPath     string
	ingestErr      error
)

func ingestFixture(b *testing.B) {
	b.Helper()
	ingestOnce.Do(func() {
		s, err := synth.MessageNetwork(synth.MessageConfig{
			Nodes: 300, Days: 60, MsgsPerPersonDay: 10, Seed: 17,
			ActivityExponent: 0.8, Reciprocity: 0.3, PartnerAffinity: 0.6,
		})
		if err != nil {
			ingestErr = err
			return
		}
		s.Sort()
		var text bytes.Buffer
		if _, err := s.WriteTo(&text); err != nil {
			ingestErr = err
			return
		}
		ingestText = text.Bytes()
		var col bytes.Buffer
		if err := s.WriteColumnar(&col, linkstream.ColumnarOptions{}); err != nil {
			ingestErr = err
			return
		}
		ingestColumnar = col.Bytes()
		dir, err := os.MkdirTemp("", "repro-ingest-*")
		if err != nil {
			ingestErr = err
			return
		}
		ingestPath = filepath.Join(dir, "trace.lsc")
		ingestErr = os.WriteFile(ingestPath, ingestColumnar, 0o644)
	})
	if ingestErr != nil {
		b.Fatal(ingestErr)
	}
}

// BenchmarkIngestText: the baseline — parse the text edge list, sort,
// and produce the engine's canonical event buffer.
func BenchmarkIngestText(b *testing.B) {
	ingestFixture(b)
	b.SetBytes(int64(len(ingestText)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewStream()
		if _, err := s.ReadEvents(bytes.NewReader(ingestText)); err != nil {
			b.Fatal(err)
		}
		ev, _, err := s.EngineEvents(0, 0, true)
		if err != nil || len(ev) == 0 {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngestColumnar: decode the columnar bytes into an in-memory
// stream (the ReadColumnar path), then produce the engine buffer.
func BenchmarkIngestColumnar(b *testing.B) {
	ingestFixture(b)
	b.SetBytes(int64(len(ingestColumnar)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewStream()
		if err := s.ReadColumnar(bytes.NewReader(ingestColumnar)); err != nil {
			b.Fatal(err)
		}
		ev, _, err := s.EngineEvents(0, 0, true)
		if err != nil || len(ev) == 0 {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngestMapped: open the columnar file memory-mapped and hand
// the engine its canonical event buffer straight off the file bytes —
// no parse, no intermediate Stream.
func BenchmarkIngestMapped(b *testing.B) {
	ingestFixture(b)
	b.SetBytes(int64(len(ingestColumnar)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := linkstream.OpenMapped(ingestPath)
		if err != nil {
			b.Fatal(err)
		}
		ev, pre, err := c.EngineEvents(0, 0, true)
		if err != nil || !pre || len(ev) == 0 {
			b.Fatal("mapped ingest lost the pre-sorted fast path")
		}
		c.Close()
	}
}

// BenchmarkIngestMappedWindow: one windowed slice (~1% of the span)
// off an already-open mapped view, resolved through the skip index.
func BenchmarkIngestMappedWindow(b *testing.B) {
	ingestFixture(b)
	c, err := linkstream.OpenMapped(ingestPath)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	span := c.TimeMax() - c.TimeMin() + 1
	start := c.TimeMin() + span/2
	end := start + span/100
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev, pre, err := c.EngineEvents(start, end, true)
		if err != nil || !pre || len(ev) == 0 {
			b.Fatal("windowed mapped slice failed")
		}
	}
	b.StopTimer()
	if c.SliceHits() < int64(b.N) {
		b.Fatalf("skip index not used: %d hits for %d iterations", c.SliceHits(), b.N)
	}
}

// BenchmarkForwardEarliestArrivals measures the single-source forward
// query on the Irvine stand-in aggregated at six hours.
func BenchmarkForwardEarliestArrivals(b *testing.B) {
	s := irvineStream(b)
	g, err := Aggregate(s, 6*3600, false)
	if err != nil {
		b.Fatal(err)
	}
	layers := temporal.SeriesLayers(g)
	cfg := temporal.Config{N: g.N}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arr, _ := temporal.EarliestArrivals(cfg, layers, int32(i%g.N), 0)
		if len(arr) != g.N {
			b.Fatal("bad arrival array")
		}
	}
}
