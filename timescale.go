// Package repro is a Go implementation of the occupancy method from
// "Non-Altering Time Scales for Aggregation of Dynamic Networks into
// Series of Graphs" (Léo, Crespelle, Fleury — CoNEXT 2015).
//
// A dynamic network given as a link stream — triplets (u, v, t) — is
// usually studied after aggregation into a series of graphs over
// disjoint windows of length ∆. This package determines the saturation
// scale γ of a stream: the largest ∆ for which the aggregated series
// still faithfully describes the propagation properties (temporal
// paths) of the original stream. Aggregating beyond γ alters them.
//
// # The plan/run lifecycle
//
// Every analysis goes through one composable lifecycle: NewAnalysis
// freezes a request into an immutable Plan via functional options, and
// Plan.Run(ctx) executes it as fused engine passes:
//
//	s := repro.NewStream()
//	s.Add("alice", "bob", 1630000000)
//	// ... add events ...
//	plan, err := repro.NewAnalysis(s, repro.WithRefine(4))
//	report, err := plan.Run(ctx)
//	fmt.Println("gamma:", report.Gamma(), "seconds")
//
// Options select metrics (WithMetrics: the sweep metrics — occupancy,
// classical properties, distances, transition loss, elongation — and
// the per-∆ snapshot metrics — degree, clustering, components,
// coreness, weighted aggregation — each a MetricCurve in the Report;
// see docs/METRICS.md), candidate grids
// (WithGrid, WithGridPoints, WithMinDelta), extra analysis windows
// (WithWindows), the refinement policy (WithRefine), activity-adaptive
// segmentation (WithAdaptive), worker and memory budgets (WithWorkers,
// WithMaxInFlight, WithHistogramBins) and custom observers
// (WithObservers, WithSegments). However much one plan requests, it is
// executed as one fused engine pass, plus one more when WithRefine
// refines the saturation scale — the stream sorted once, every distinct (window, ∆) aggregation built and swept
// exactly once — and the typed Report carries per-metric and
// per-window accessors plus the run's EngineStats.
//
// Run honours ctx end to end: an already-cancelled context returns
// before the stream is sorted, and a mid-run cancellation drains the
// in-flight pipeline, recycles every pooled buffer and joins every
// worker before returning ctx.Err(). WithProgress streams engine
// milestones (periods scored, trip enumerations, per-pass counters)
// while the plan runs.
//
// # The sweep engine and observers
//
// Every per-∆ analysis in the paper shares one shape: aggregate the
// stream at each candidate period, run the temporal-path engine over
// the layered graph, and feed what falls out to a metric. The unified
// sweep engine (internal/sweep) runs that loop once: the stream is
// sorted and canonicalised a single time, each period's layer arena is
// built and swept exactly once, and the products of that single
// backward sweep — minimal trips, occupancy rates, distance segments,
// per-window snapshot statistics, the raw stream's minimal trips — fan
// out to registered observers. The occupancy method
// (NewOccupancyObserver), the classical Figure 2 properties
// (NewClassicObserver), the Section 8 validation curves
// (NewTransitionLossObserver, NewElongationObserver) and the distance
// curves (NewDistanceObserver) are all such observers; a plan's
// WithObservers runs any combination of them — or custom ones — in one
// fused pass, so a new metric is a ~50-line observer rather than a new
// sweep loop. The snapshot metrics (internal/metrics: degree,
// clustering, components, coreness, weighted aggregation) ride two
// further lanes of the same build — SweepNeeds.Snapshots hands
// ObservePeriod the period's layer arena itself, and
// SweepNeeds.EdgeWeights its per-edge contact counts — so scoring the
// structure of G∆ adds no pass and no build either;
// docs/ARCHITECTURE.md walks through writing one.
//
// Period scheduling is a bounded in-flight pipeline. At most
// Options.MaxInFlight periods are resident at once (layer arena plus
// product sinks): each period is built, swept by the shared worker
// pool, scored by every observer and freed before the pipeline admits
// another, so a sweep's peak memory is O(MaxInFlight × period
// footprint) instead of O(grid × period footprint) — wide logarithmic
// ∆ grids run over large streams in bounded space, at the cost of a
// little scheduling slack (MaxInFlight ≥ 2 overlaps arena construction
// with sweeping; 1 fully serialises).
//
// # The streaming trip pipeline
//
// Observers that consume the raw stream's minimal trips have two
// registration modes. The eager mode (SweepNeeds.StreamTrips) hands
// Begin one flat slice of every trip — simple, but its residency is
// O(total trips), and for long streams the trip population, not the
// sweep, bounds memory. The streaming mode (SweepNeeds.StreamTripRuns,
// observers implementing SweepTripRunObserver) instead delivers the
// enumeration as per-destination runs in strictly increasing
// destination order: each run is scored and recycled before the next
// block of destinations is swept, so at most MaxInFlight destination
// blocks of trips ever exist at once. The Section 8 validation
// observers are built on it — the transition-loss observer keeps only
// the two-hop spans, and the elongation observer encodes each run into
// a delta-encoded pair-span arena — with the eager implementations
// retained as bit-exact references.
//
// Per-period trip scans shard the same way: a SweepShardedTripObserver
// (SweepNeeds.TripShards) receives one SweepTripShard per period, fed
// one destination block at a time on the worker that swept it, with
// per-lane partial sums folded in lane order — bit-for-bit identical
// results for any worker count, without the period ever holding its
// trips whole. Coinciding work across windowed segments is
// deduplicated automatically: segments requesting the same (window, ∆)
// share one layer arena and one backward sweep, and segments sharing an
// event window share one raw-stream trip enumeration.
//
// # Stream formats and out-of-core ingest
//
// A stream can reach the engine three ways. Text ("<u> <v> <t>" per
// line) and the row-oriented LSB binary codec (WriteBinary/ReadBinary,
// versioned header — unknown future versions are refused, never
// misdecoded) both parse into an in-memory Stream; Stream.ReadAny
// detects the format from the leading bytes. The LSC columnar format
// (cmd/tsconvert, linkstream.WriteColumnar) is the out-of-core path:
// parallel time/source/destination column arrays behind an index
// header (node table, event count, time span, sorted/canonical flags,
// sparse time→offset skip index), opened memory-mapped where the
// platform supports it and handed to the engine with zero parse.
//
// WithStreamPath builds a plan over such a file (the stream argument
// of NewAnalysis must be nil):
//
//	plan, err := repro.NewAnalysis(nil, repro.WithStreamPath("trace.lsc"))
//	defer plan.Close() // releases the mapping
//	report, err := plan.Run(ctx)
//
// Because tsconvert writes the columns time-sorted, the engine skips
// its sort/canonicalise pass entirely (EngineStats.SortSkips counts
// the passes that took the fast path), and every windowed pass
// binary-searches the skip index so a [Start, End) window materialises
// only its own span — the rest of the file's pages are never touched.
// The report is bit-identical to the same analysis over the parsed
// text stream; the equivalence suite pins this across seeds ×
// orientations. Non-columnar paths given to WithStreamPath are simply
// parsed into memory, so one flag serves every format.
//
// The elongation metric is out-of-core on the other axis: its pair
// index over the raw stream's minimal-trip spans is a delta-encoded
// destination-major arena, and WithElongationSpill caps its resident
// bytes — beyond the cap, finished regions spill to an unlinked temp
// file re-read sequentially during scoring. The curve is bit-identical
// for any cap, so Section 8 validation runs on streams whose span
// population exceeds RAM.
//
// # Serving analyses
//
// The wire surface (wire.go) expresses an analysis request as data:
// PlanSpec is the serialisable form of NewAnalysis's functional
// options, every field mapping onto exactly one option
// (PlanSpec.Options), with the stream referenced either by columnar
// file — path plus Columnar header hash, so a receiver can refuse a
// ref whose file changed — or by events inlined in the spec. Report
// gains a deterministic JSON form whose bytes are identical whenever
// the results are: per-run engine instrumentation (EngineStats) stays
// out of it by design, since results are pinned bit-identical across
// worker counts, lane widths and in-flight budgets while the
// instrumentation of a particular run is not.
//
//	spec := &repro.PlanSpec{
//		Stream:  &repro.StreamRef{Path: "trace.lsc"},
//		Metrics: []string{"occupancy", "loss"},
//		Refine:  4,
//	}
//	plan, err := spec.NewPlan()        // same plan as hand-written options
//	defer plan.Close()
//	report, err := plan.Run(ctx)
//
// On top of it, internal/serve and cmd/tsserve provide
// analysis-as-a-service: a versioned envelope codec (unknown versions
// and fields rejected by name, fuzz-pinned), a bounded job queue with
// per-tenant concurrency budgets, and a result cache keyed by the
// spec's result identity — stream fingerprint plus every
// result-affecting knob, never the execution hints — so coinciding
// submissions cost one engine run. Attached clients hold leases on
// their run; when the last one disconnects the run's context is
// cancelled and the engine unwinds through the same abort paths as a
// local Run. An HTTP-fetched report is byte-identical to the same
// plan run in-process (tsscale -json prints the same envelope for
// offline comparison). See the README's "Serving analyses" section
// for the endpoint walkthrough.
//
// # Performance tuning
//
// Every speed knob is bit-exact: any setting produces identical
// results, only wall-clock and allocation profiles move.
//
// WithLaneWidth selects the sweep kernel width. The backward sweep
// relaxes destinations in hand-unrolled blocks of 4 or 8 lanes; width
// 0 (the default) resolves to 8 on amd64 and arm64 — a node's packed
// int64 lanes span exactly one cache line, and the wider block halves
// the layer passes per destination set — and 4 elsewhere. The lane
// equivalence suites pin every width to the reference sweep bit for
// bit.
//
// Per-period layer arenas are pooled automatically, size-classed by
// (nodes, events) powers of two, shelf-capped and idle-evicted so a
// one-off huge period cannot pin memory under later tiny-period
// churn. Report.EngineStats exposes the arena counters (handed,
// reused, recycled); handed always equals recycled once a run
// returns — on success, cancellation and observer failure alike.
//
// For binary-level tuning, `make pgo` profiles the fused hot-path
// benchmarks per-benchmark, merges the CPU profiles into default.pgo
// and rebuilds with -pgo; CI exercises the pipeline on every push.
//
// The subpackages under internal/ expose the full machinery:
// aggregation (internal/series), the temporal-path engine
// (internal/temporal), the sweep engine (internal/sweep), the
// uniformity metrics (internal/dist), synthetic workloads
// (internal/synth) and the figure harness (internal/figures). This
// root package re-exports the surface most applications need.
package repro

import (
	"context"

	"repro/internal/adaptive"
	"repro/internal/classic"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/linkstream"
	"repro/internal/series"
	"repro/internal/sweep"
	"repro/internal/temporal"
	"repro/internal/validate"
)

// Stream is a link stream: a finite collection of (u, v, t) events over
// an interned node set. See NewStream.
type Stream = linkstream.Stream

// Event is a single link occurrence.
type Event = linkstream.Event

// Options configures the occupancy method (see core.Options).
type Options = core.Options

// Result is the outcome of the occupancy method: the saturation scale
// Gamma and the full score curve.
type Result = core.Result

// SweepPoint is one scored aggregation period of a sweep.
type SweepPoint = core.SweepPoint

// Sample is an empirical occupancy-rate distribution on [0,1].
type Sample = dist.Sample

// Selector scores how uniformly a distribution spreads over [0,1].
type Selector = dist.Selector

// Series is a link stream aggregated into a series of graphs.
type Series = series.Series

// Trip is a minimal trip (u, v, departure, arrival, hops).
type Trip = temporal.Trip

// NewStream returns an empty link stream.
func NewStream() *Stream { return linkstream.New() }

// OccupancyDistribution aggregates the stream at period delta and
// returns the distribution of occupancy rates of the minimal trips of
// the aggregated series.
func OccupancyDistribution(s *Stream, delta int64, opt Options) (*Sample, error) {
	return core.OccupancySample(s, delta, opt)
}

// Aggregate builds the graph series G∆ from the stream (Definition 1 of
// the paper).
func Aggregate(s *Stream, delta int64, directed bool) (*Series, error) {
	return series.Aggregate(s, delta, directed)
}

// MinimalTrips enumerates all minimal trips of the aggregated series.
func MinimalTrips(g *Series) []Trip {
	cfg := temporal.Config{N: g.N, Directed: g.Directed}
	return temporal.CollectTripsCSR(cfg, temporal.SeriesCSR(g))
}

// StreamMinimalTrips enumerates all minimal trips of the raw stream
// (layer per distinct timestamp).
func StreamMinimalTrips(s *Stream, directed bool) []Trip {
	cfg := temporal.Config{N: s.NumNodes(), Directed: directed}
	return temporal.CollectTripsCSR(cfg, temporal.StreamCSR(s, directed))
}

// LayeredCSR is the flat arena representation the temporal engine runs
// on: one contiguous endpoint array plus per-layer offsets. Build one
// with SeriesCSR or StreamCSR to amortise conversion across repeated
// queries on the same layered graph.
type LayeredCSR = temporal.CSR

// SeriesCSR builds the engine arena of an aggregated series.
func SeriesCSR(g *Series) *LayeredCSR { return temporal.SeriesCSR(g) }

// StreamCSR builds the engine arena of the raw stream (one layer per
// distinct timestamp, canonicalised unless directed).
func StreamCSR(s *Stream, directed bool) *LayeredCSR { return temporal.StreamCSR(s, directed) }

// CSRMinimalTrips enumerates all minimal trips of a prebuilt arena.
func CSRMinimalTrips(c *LayeredCSR, n int, directed bool) []Trip {
	return temporal.CollectTripsCSR(temporal.Config{N: n, Directed: directed}, c)
}

// CSROccupancies returns the occupancy rates of all minimal trips of a
// prebuilt arena.
func CSROccupancies(c *LayeredCSR, n int, directed bool) []float64 {
	return temporal.OccupanciesCSR(temporal.Config{N: n, Directed: directed}, c)
}

// DefaultGridPoints is the number of candidate periods a derived
// logarithmic grid contains by default.
const DefaultGridPoints = core.DefaultGridPoints

// BestPoint returns the index of the sweep point maximising selector
// selIdx (ties break towards the smaller ∆).
func BestPoint(points []SweepPoint, selIdx int) int { return core.Best(points, selIdx) }

// LogGrid returns a geometrically spaced candidate-period grid.
func LogGrid(lo, hi int64, points int) []int64 { return core.LogGrid(lo, hi, points) }

// LinearGrid returns an evenly spaced candidate-period grid.
func LinearGrid(lo, hi int64, points int) []int64 { return core.LinearGrid(lo, hi, points) }

// AllSelectors returns the five uniformity measures compared in the
// paper's Section 7.
func AllSelectors() []Selector { return dist.AllSelectors() }

// ClassicPoint holds the classical graph-series properties (Figure 2)
// at one aggregation period.
type ClassicPoint = classic.Point

// LossPoint is the proportion of shortest transitions lost at one
// period (Section 8).
type LossPoint = validate.LossPoint

// ElongationPoint is the mean elongation factor at one period
// (Section 8, Definition 8).
type ElongationPoint = validate.ElongationPoint

// AdaptiveConfig is the segmentation policy of the activity-segmented
// analysis (the extension proposed in the paper's conclusion); see
// WithAdaptive.
type AdaptiveConfig = adaptive.Config

// AdaptiveAnalysis is the outcome of an adaptive plan (Report.Adaptive).
type AdaptiveAnalysis = adaptive.Analysis

// AdaptiveSegment is one activity segment of an AdaptiveAnalysis.
type AdaptiveSegment = adaptive.Segment

// SweepObserver consumes the products of a unified sweep-engine run;
// see WithObservers.
type SweepObserver = sweep.Observer

// SweepNeeds declares which engine products an observer consumes.
type SweepNeeds = sweep.Needs

// SweepStreamView is the stream-level context handed to a
// SweepObserver's Begin.
type SweepStreamView = sweep.StreamView

// SweepPeriod is the per-period view handed to a SweepObserver's
// ObservePeriod.
type SweepPeriod = sweep.Period

// SweepTripRunObserver is the streaming consumer of the raw stream's
// minimal trips: per-destination runs in strictly increasing
// destination order, recycled as soon as the call returns. Declare
// SweepNeeds.StreamTripRuns to receive them.
type SweepTripRunObserver = sweep.TripRunObserver

// SweepTripShard is the per-period state of a sharded trip scan; the
// engine feeds it one destination block of minimal trips at a time on
// the worker that swept the block.
type SweepTripShard = sweep.TripShard

// SweepShardedTripObserver is an observer whose per-period trip scan is
// sharded across the engine's worker pool (SweepNeeds.TripShards).
type SweepShardedTripObserver = sweep.ShardedTripObserver

// SegmentObserver scopes a set of observers to one time window of the
// stream with its own candidate grid — the unit of windowed observer
// registration for WithSegments. A Start >= End window (the zero value)
// selects the whole stream.
type SegmentObserver = sweep.SegmentObserver

// SweepRunner executes one engine pass for SaturationScaleWith: score
// every period of grid with obs.
type SweepRunner = core.SweepRunner

// ScaleSearch is the occupancy method as a resumable search,
// letting a caller batch the engine passes of many concurrent searches
// (see core.ScaleSearch for the protocol).
type ScaleSearch = core.ScaleSearch

// NewScaleSearch stages a scale search over opt.Grid.
func NewScaleSearch(opt Options) (*ScaleSearch, error) { return core.NewScaleSearch(opt) }

// SaturationScaleWith runs the occupancy method's sweep-then-refine
// search through a caller-supplied engine pass. Callers that do not
// need a custom runner should build a Plan instead (NewAnalysis).
func SaturationScaleWith(opt Options, run SweepRunner) (Result, error) {
	return core.SaturationScaleWith(context.Background(), opt, run)
}

// OccupancyObserver scores per-period occupancy distributions (the
// occupancy method) in a plan's WithObservers.
type OccupancyObserver = core.OccupancyObserver

// NewOccupancyObserver returns an occupancy-method observer scoring
// with the given selectors (nil = M-K proximity only).
func NewOccupancyObserver(sels []Selector) *OccupancyObserver {
	return core.NewOccupancyObserver(sels)
}

// ClassicObserver collects the Figure 2 classical properties in a
// plan's WithObservers.
type ClassicObserver = classic.Observer

// NewClassicObserver returns a classical-properties observer.
func NewClassicObserver() *ClassicObserver { return classic.NewObserver() }

// TransitionLossObserver collects the Section 8 transition-loss curve
// in a plan's WithObservers.
type TransitionLossObserver = validate.TransitionLossObserver

// NewTransitionLossObserver returns a transition-loss observer.
func NewTransitionLossObserver() *TransitionLossObserver {
	return validate.NewTransitionLossObserver()
}

// ElongationObserver collects the Section 8 elongation curve in a
// plan's WithObservers.
type ElongationObserver = validate.ElongationObserver

// NewElongationObserver returns an elongation observer.
func NewElongationObserver() *ElongationObserver { return validate.NewElongationObserver() }

// DistancePoint is one period's mean temporal distances (Figure 2
// bottom panels).
type DistancePoint = sweep.DistancePoint

// DistanceObserver collects the distance curves in a plan's
// WithObservers, from the same backward sweeps every other observer
// shares.
type DistanceObserver = sweep.DistanceObserver

// NewDistanceObserver returns a distance observer.
func NewDistanceObserver() *DistanceObserver { return sweep.NewDistanceObserver() }

// EarliestArrivals answers the forward query on an aggregated series:
// departing from src at window startWindow or later, the earliest
// arrival window at every node (temporal.Unreachable if none) and the
// minimum hops among paths realising it.
func EarliestArrivals(g *Series, src int32, startWindow int64) (arr []int64, hops []int32) {
	cfg := temporal.Config{N: g.N, Directed: g.Directed}
	return temporal.EarliestArrivalsCSR(cfg, temporal.SeriesCSR(g), src, startWindow)
}

// StreamEarliestArrivals answers the forward query on the raw stream,
// with raw timestamps.
func StreamEarliestArrivals(s *Stream, src int32, startTime int64, directed bool) (arr []int64, hops []int32) {
	cfg := temporal.Config{N: s.NumNodes(), Directed: directed}
	return temporal.EarliestArrivalsCSR(cfg, temporal.StreamCSR(s, directed), src, startTime)
}

// ReachablePairs counts the ordered pairs (u, v) connected by at least
// one temporal path in the aggregated series.
func ReachablePairs(g *Series) int64 {
	cfg := temporal.Config{N: g.N, Directed: g.Directed}
	return temporal.CountReachablePairsCSR(cfg, temporal.SeriesCSR(g))
}

// Unreachable is the earliest-arrival value of unreachable nodes.
const Unreachable = temporal.Unreachable
