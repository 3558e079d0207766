// Package sweep implements the unified observer-based sweep engine:
// the one loop every per-∆ analysis of the paper shares. A sweep sorts
// and canonicalises the link stream exactly once, builds each candidate
// period's CSR layer arena exactly once, runs the backward temporal-path
// sweep over it exactly once, and fans the products of that single pass
// — minimal trips, occupancy rates, distance segments, per-window
// snapshot statistics and the raw stream's minimal trips — out to
// registered Observers. The occupancy method (core), the classical
// Figure 2 properties (classic), the Section 8 validation curves
// (validate) and the Figure 2 distance curves (DistanceObserver) are
// all observers of the same engine run, so computing every metric costs
// one pass over the stream instead of one pass per metric.
//
// Period scheduling is a bounded in-flight pipeline: at most
// Options.MaxInFlight periods have their CSR arena and product sinks
// resident at any moment. A period's arena is built, swept by the
// shared worker pool, scored by every observer and freed before the
// (MaxInFlight+1)-th following period starts, so peak memory is
// O(MaxInFlight × period footprint) instead of O(grid × period
// footprint) — the property that lets wide ∆ grids run over very large
// streams.
//
// Observer registration is windowed (see SegmentObserver and
// RunWindowed): one engine pass can serve several time windows of the
// stream at once, each with its own candidate grid and observer set,
// all sharing the sorted canonical event buffer, the worker pool and
// the in-flight bound. Run is the single-window special case.
package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/linkstream"
	"repro/internal/series"
	"repro/internal/temporal"
)

// ErrNoEvents is returned when the stream has no event to analyse.
var ErrNoEvents = errors.New("sweep: stream has no events")

// DefaultMaxInFlight is the number of periods kept resident when
// Options.MaxInFlight is unset: enough to overlap one period's arena
// construction with the sweeps of the previous ones without ever
// holding a whole grid in memory.
const DefaultMaxInFlight = 4

// Options configures an engine run.
type Options struct {
	// Directed preserves link orientation in layers and paths.
	Directed bool
	// Workers bounds engine parallelism; <= 0 means GOMAXPROCS.
	Workers int
	// MaxInFlight bounds how many periods may be resident (CSR arena
	// plus product sinks) at once; <= 0 selects DefaultMaxInFlight.
	// 1 fully serialises periods with minimal memory; values >= 2
	// overlap one period's construction and scoring with the sweeps of
	// the others.
	MaxInFlight int
	// Progress, when non-nil, receives one ProgressEvent per engine
	// milestone: the run preparing its job plan, each raw-stream trip
	// enumeration, and every (segment, ∆) period delivered to its
	// observers. Calls are serialised — the callback never runs
	// concurrently with itself — but it executes on engine goroutines,
	// so it must be fast and must not call back into the engine.
	Progress func(ProgressEvent)
	// Stats, when non-nil, accumulates this run's engine counters: each
	// pass adds its builds, dedup hits, stream enumerations and observed
	// periods, and raises MaxResident to its own high-water mark.
	// Unlike the package-level BuildStats counters it is per-run, so
	// concurrent runs do not bleed into each other's numbers.
	Stats *RunStats
}

// Stage identifies what a ProgressEvent reports.
type Stage uint8

const (
	// StagePlanned: the stream is sorted and canonicalised and the run's
	// period jobs are planned; PeriodsTotal is known from here on.
	StagePlanned Stage = iota
	// StageStreamTrips: one raw-stream trip enumeration completed.
	StageStreamTrips
	// StagePeriod: one (segment, ∆) period was scored by every observer
	// that requested it; Delta identifies the period.
	StagePeriod
)

// stageNames are the Stage wire names, the ones the serving codec and
// SSE progress streams carry; UnmarshalJSON accepts exactly these.
var stageNames = [...]string{"planned", "stream-trips", "period"}

// String returns the stage's wire name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("Stage(%d)", uint8(s))
}

// MarshalJSON encodes the stage as its wire name, so serialised
// progress events read "period" rather than an enum ordinal and the
// ordinals can be reordered without breaking consumers.
func (s Stage) MarshalJSON() ([]byte, error) {
	if int(s) >= len(stageNames) {
		return nil, fmt.Errorf("sweep: stage: unknown stage %d", uint8(s))
	}
	return json.Marshal(s.String())
}

// UnmarshalJSON decodes a stage wire name.
func (s *Stage) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return fmt.Errorf("sweep: stage: %w", err)
	}
	for i, n := range stageNames {
		if n == name {
			*s = Stage(i)
			return nil
		}
	}
	return fmt.Errorf("sweep: stage: unknown stage %q (want %s)", name, strings.Join(stageNames[:], ", "))
}

// ProgressEvent is one milestone of an engine run, delivered through
// Options.Progress. Counter fields are this run's running totals (not
// the package-level counters), so a consumer can render completion
// without any engine query. The json tags are the wire contract of the
// serving layer's SSE progress stream (internal/serve).
type ProgressEvent struct {
	// Pass is filled by multi-pass drivers (a refined scale search
	// runs a second engine pass); a single Run leaves it 0.
	Pass int `json:"pass"`
	// Stage identifies the milestone; Delta is set for StagePeriod.
	Stage Stage `json:"stage"`
	Delta int64 `json:"delta,omitempty"`
	// PeriodsDone / PeriodsTotal count (segment, ∆) periods delivered to
	// their observers, out of all the run will deliver.
	PeriodsDone  int `json:"periods_done"`
	PeriodsTotal int `json:"periods_total"`
	// Builds, Dedups and StreamBuilds mirror RunStats for this run so
	// far.
	Builds       int64 `json:"builds"`
	Dedups       int64 `json:"dedups"`
	StreamBuilds int64 `json:"stream_builds"`
}

// RunStats aggregates the engine instrumentation of one or more runs
// (see Options.Stats): how many period CSR arenas were built, how many
// coinciding (window, ∆) jobs were deduplicated onto an existing build,
// how many raw-stream trip enumerations ran, how many (segment, ∆)
// periods were delivered to observers, the peak number of simultaneously
// resident periods, and how many engine passes contributed.
type RunStats struct {
	Passes       int64 `json:"passes"`
	Builds       int64 `json:"builds"`
	Dedups       int64 `json:"dedups"`
	StreamBuilds int64 `json:"stream_builds"`
	Periods      int64 `json:"periods"`
	MaxResident  int64 `json:"max_resident"`
	// SortSkips counts the passes whose event source was already in
	// engine order (a sorted columnar stream handed to RunSource), so
	// the sort/canonicalise pass was skipped. SortSkips == Passes means
	// every pass of the run took the pre-sorted fast path.
	SortSkips int64 `json:"sort_skips"`
	// Arena accounting of the size-classed CSR arena pool: how many of
	// this run's CSR builds were handed an arena, how many of those
	// reused a shelved arena of the same size class (the rest allocated
	// fresh), and how many arenas the run recycled back. Handed and
	// recycled must balance once a run completes — finished, failed or
	// cancelled; the engine's teardown paths guarantee it and the
	// cancellation tests assert it.
	ArenaHanded   int64 `json:"arena_handed"`
	ArenaReused   int64 `json:"arena_reused"`
	ArenaRecycled int64 `json:"arena_recycled"`
}

// Add folds another accumulator into s: counters sum, MaxResident
// takes the maximum.
func (s *RunStats) Add(o RunStats) {
	s.Passes += o.Passes
	s.SortSkips += o.SortSkips
	s.Builds += o.Builds
	s.Dedups += o.Dedups
	s.StreamBuilds += o.StreamBuilds
	s.Periods += o.Periods
	if o.MaxResident > s.MaxResident {
		s.MaxResident = o.MaxResident
	}
	s.ArenaHanded += o.ArenaHanded
	s.ArenaReused += o.ArenaReused
	s.ArenaRecycled += o.ArenaRecycled
}

// Needs declares which engine products an observer consumes. The
// engine computes the union of all observers' needs in a single sweep
// pass, so registering one more observer never adds another pass.
type Needs struct {
	// Occupancies requests Period.OccupancyChunks, the occupancy rates
	// of the minimal trips.
	Occupancies bool
	// Distances requests Period.Distances, the Figure 2 mean distance
	// statistics.
	Distances bool
	// WindowStats requests Period.Windows, the per-snapshot classical
	// properties.
	WindowStats bool
	// StreamTripRuns requests the minimal trips of the raw stream: the
	// observer (which must implement TripRunObserver) receives them as
	// per-destination runs in strictly increasing destination order,
	// after Begin and before any period. Runs are recycled as soon as
	// every consumer has seen them, so at most Options.MaxInFlight
	// destination blocks of trips are resident at once — O(in-flight
	// runs), not O(total trips).
	StreamTripRuns bool
	// TripShards requests the minimal trips of G∆ (Dep and Arr are
	// window indices), scored shard by shard: the observer (which must
	// implement ShardedTripObserver) gets a fresh TripShard per period,
	// fed one destination block of minimal trips at a time on whichever
	// worker swept the block. The blocks are recycled as soon as every
	// shard has seen them, so a period never holds its trips whole.
	TripShards bool
	// Snapshots requests Period.Graph, the period's layer arena itself:
	// each layer is one non-empty window's deduplicated edge set, in
	// window order. This is the lane the snapshot-metric observers
	// (internal/metrics) build on — the engine hands out the one CSR it
	// already built for the period, so requesting it adds no build and
	// no sweep. The arena is recycled when ObservePeriod returns;
	// observers must extract what they keep inside the call.
	Snapshots bool
	// EdgeWeights requests Period.EdgeWeights, the weighted-aggregation
	// lane: the contact count of every edge of the period's layer arena
	// (edge weight = number of stream events falling in the window, the
	// GraphTempo / pyTempNet AggregateNet semantics), aligned
	// index-for-index with the arena's edge order. Observers normally
	// declare Snapshots alongside it to receive the arena the weights
	// index into. The period's build counts the weights in the same
	// pass that deduplicates the windows (temporal.CSR.Weights), so
	// the lane adds no task and no second CSR construction.
	EdgeWeights bool
}

func (n Needs) union(o Needs) Needs {
	return Needs{
		Occupancies:    n.Occupancies || o.Occupancies,
		Distances:      n.Distances || o.Distances,
		WindowStats:    n.WindowStats || o.WindowStats,
		StreamTripRuns: n.StreamTripRuns || o.StreamTripRuns,
		TripShards:     n.TripShards || o.TripShards,
		Snapshots:      n.Snapshots || o.Snapshots,
		EdgeWeights:    n.EdgeWeights || o.EdgeWeights,
	}
}

// perPeriod reports whether any per-period product requires building
// the period's CSR at all.
func (n Needs) perPeriod() bool {
	return n.Occupancies || n.Distances || n.WindowStats ||
		n.TripShards || n.Snapshots || n.EdgeWeights
}

// sweeps reports whether the backward temporal-path sweep must run.
func (n Needs) sweeps() bool {
	return n.Occupancies || n.Distances || n.TripShards
}

// StreamView is the stream-level context handed to Observer.Begin: the
// sorted (and, for undirected runs, canonicalised) event buffer shared
// by every period and the candidate grid.
type StreamView struct {
	N        int
	Directed bool
	T0, T1   int64
	Grid     []int64
	// Events is sorted by time and canonicalised (U < V) for
	// undirected runs. Observers must not modify it.
	Events []linkstream.Event
}

// Period is the per-period view handed to Observer.ObservePeriod. Only
// the products requested through Needs are populated; everything the
// period owns is released once every observer has seen it.
type Period struct {
	Index      int   // position in StreamView.Grid
	Delta      int64 // aggregation period
	T0         int64 // origin of the window partition
	NumWindows int64 // total number of windows, empty ones included

	// OccupancyChunks holds the occupancy-rate multiset of the minimal
	// trips as a list of engine-owned value chunks (OccupancyCount
	// values overall), in unspecified order. Populated for
	// Needs.Occupancies. The chunks are recycled when ObservePeriod
	// returns — observers must consume them inside the call
	// (dist.NewSampleFromChunks does exactly that).
	OccupancyChunks [][]float64
	// OccupancyCount is the total number of values in OccupancyChunks.
	OccupancyCount int
	// Distances holds the mean temporal distances (dtime in window
	// counts, durPlus = 1). Populated for Needs.Distances.
	Distances temporal.DistanceStats
	// Windows holds the classical per-snapshot statistics. Populated
	// for Needs.WindowStats.
	Windows series.Stats
	// Graph is the period's layer arena: layer li is window key
	// Graph.Keys[li]'s deduplicated edge set (edge e of the layer is
	// Graph.Ends[2e], Graph.Ends[2e+1]), ascending by packed (U, V) key
	// within the layer; empty windows have no layer. Populated for
	// Needs.Snapshots. The arena is recycled when ObservePeriod
	// returns — observers must not retain it or anything it backs.
	Graph *temporal.CSR
	// EdgeWeights is the weighted aggregation of the period: entry e is
	// the number of stream events that window's edge e aggregates (its
	// contact count), indexed exactly like Graph's edge list — the
	// weight of Graph.Ends[2e], Graph.Ends[2e+1] is EdgeWeights[e], and
	// the weights of layer li are EdgeWeights[Graph.Off[li]:
	// Graph.Off[li+1]]. Populated for Needs.EdgeWeights; valid only
	// during the call, like Graph.
	EdgeWeights []int32
	// Shard is the receiving observer's own per-period TripShard, set
	// only while a ShardedTripObserver's ObservePeriod runs. Every
	// block has been observed by the time it is handed back.
	Shard TripShard
}

// Observer consumes the products of an engine run. Begin is called
// once, before any period; ObservePeriod is called exactly once per
// grid entry, possibly concurrently for different periods (an observer
// must only touch per-period state, e.g. write results[p.Index], or
// read state frozen in Begin).
type Observer interface {
	// Needs declares which products the observer consumes.
	Needs() Needs
	// Begin receives the stream-level view before any period runs.
	Begin(v *StreamView) error
	// ObservePeriod receives one period's products. The Period and
	// everything it references become invalid when the call returns;
	// observers must copy what they keep.
	ObservePeriod(p *Period) error
}

// TripRunObserver is the streaming consumer of the raw stream's minimal
// trips; observers declaring Needs.StreamTripRuns must implement it.
// The engine calls, in order: Begin, then ObserveTripRun once per
// destination with at least one trip (destinations strictly increasing,
// each run in the departure-descending order of the backward sweep —
// per (source, destination) pair, trips arrive in strictly decreasing
// departure order), then FinishTripRuns, and only then any
// ObservePeriod. A run's memory is recycled when the call returns;
// consumers keep what they score, never the slice.
type TripRunObserver interface {
	Observer
	ObserveTripRun(dest int32, run []temporal.Trip) error
	FinishTripRuns() error
}

// TripShard is the per-period state of a sharded trip observer: the
// engine feeds it one destination block of the period's minimal trips
// at a time, on whichever worker swept the block, so a huge trip
// population is scored in parallel without ever being held whole.
// ObserveTripBlock is called exactly once per block, concurrently for
// different blocks; lanes has one entry per lane of the blocked sweep
// (the lanesPerBlock passed to NewTripShard, always temporal.LaneWidth)
// and lane l holds destination block*lanesPerBlock+l's trips in the
// same departure-descending order a single-destination sweep would
// emit. Shards that accumulate floating-point sums should keep one
// partial per lane and fold them in lane order inside ObservePeriod —
// that makes the result bit-for-bit independent of worker count and
// scheduling.
type TripShard interface {
	ObserveTripBlock(block int, lanes [][]temporal.Trip) error
}

// ShardedTripObserver is an Observer whose per-period trip scan is
// sharded across the worker pool; observers declaring Needs.TripShards
// must implement it. NewTripShard is called once per period, before any
// of its blocks sweep, with the run's block count and the destinations
// per block, which is always temporal.LaneWidth; the shard then
// receives every block and is finally handed back through Period.Shard
// in ObservePeriod.
type ShardedTripObserver interface {
	Observer
	NewTripShard(delta int64, blocks, lanesPerBlock int) TripShard
}

// Engine instrumentation: periodBuilds counts period CSR constructions
// since the last ResetBuildStats; periodsAlive tracks the currently
// resident periods and maxAlive their high-water mark; engineRuns
// counts engine passes (Run / RunWindowed invocations that reach the
// sweep stage); periodDedups counts (window, ∆) jobs that joined an
// already-scheduled coinciding job instead of building their own CSR;
// streamBuilds counts raw-stream trip enumerations (one per distinct
// event window that requested stream trips); sortSkips counts engine
// passes whose source was already in engine order so the
// sort/canonicalise pass was skipped (pre-sorted columnar streams).
// Tests use these to assert the build-each-CSR-once,
// bounded-in-flight, one-pass-per-analysis, dedup and sort-skip
// guarantees.
var (
	periodBuilds atomic.Int64
	periodsAlive atomic.Int64
	maxAlive     atomic.Int64
	engineRuns   atomic.Int64
	periodDedups atomic.Int64
	streamBuilds atomic.Int64
	sortSkips    atomic.Int64
)

// ResetBuildStats zeroes the engine's build instrumentation.
func ResetBuildStats() {
	periodBuilds.Store(0)
	periodsAlive.Store(0)
	maxAlive.Store(0)
	engineRuns.Store(0)
	periodDedups.Store(0)
	streamBuilds.Store(0)
	sortSkips.Store(0)
}

// BuildStats returns how many period CSR arenas were built since the
// last ResetBuildStats and the maximum number simultaneously resident.
func BuildStats() (builds, maxInFlight int64) {
	return periodBuilds.Load(), maxAlive.Load()
}

// RunCount returns how many engine passes started since the last
// ResetBuildStats. A fused multi-segment analysis performs one pass no
// matter how many windows it serves; per-segment reference paths
// perform one per window.
func RunCount() int64 { return engineRuns.Load() }

// DedupCount returns how many (window, ∆) period jobs were served by a
// coinciding job's single CSR build instead of building their own,
// since the last ResetBuildStats. BuildStats().builds + DedupCount() is
// the total number of (segment, ∆) periods observed.
func DedupCount() int64 { return periodDedups.Load() }

// StreamBuildCount returns how many raw-stream trip enumerations ran
// since the last ResetBuildStats: one per distinct event window whose
// observers requested stream trip runs, however many segments share
// that window.
func StreamBuildCount() int64 { return streamBuilds.Load() }

// SortSkipCount returns how many engine passes since the last
// ResetBuildStats consumed a pre-sorted source (RunSource over a
// sorted columnar stream) and therefore skipped the engine's
// sort/canonicalise pass entirely.
func SortSkipCount() int64 { return sortSkips.Load() }

// Run executes one engine pass over the whole stream: it validates the
// inputs, prepares the shared stream view, calls every observer's
// Begin, streams the raw-stream trips to the observers that requested
// them, then pipelines the grid's periods through the bounded in-flight
// scheduler, fanning each period's products to every observer. The
// first error — from an observer, the engine itself, or ctx being
// cancelled — aborts the run and is returned. Run is the single-window
// special case of RunWindowed; see RunWindowed for the cancellation
// contract.
func Run(ctx context.Context, s *linkstream.Stream, grid []int64, opt Options, observers ...Observer) error {
	return RunWindowed(ctx, s, opt, SegmentObserver{Grid: grid, Observers: observers})
}

// statsBlock is the pseudo block index of a period's window-statistics
// task.
const statsBlock = -1

// scope is the engine-internal state of one registered SegmentObserver:
// its window's slice of the shared event buffer wrapped in a
// StreamView, the union of its observers' needs, the slice bounds in
// the shared buffer (the dedup key of its periods).
type scope struct {
	seg    SegmentObserver
	needs  Needs
	v      *StreamView
	lo, hi int // bounds of v.Events in the shared sorted buffer
}

// jobTarget is one (scope, grid index) a period job serves.
type jobTarget struct {
	sc  *scope
	idx int
}

// specKey identifies coinciding period jobs: same event window of the
// shared buffer, same aggregation period.
type specKey struct {
	lo, hi int
	delta  int64
}

// jobSpec is one deduplicated period job: the targets whose (window, ∆)
// coincide, with the union of their needs. One CSR is built and swept
// for the spec; finalize fans its products to every target.
type jobSpec struct {
	delta   int64
	targets []jobTarget
	needs   Needs
}

// view returns the representative stream view of the spec (all targets
// share the same event slice, T0 and T1).
func (sp *jobSpec) view() *StreamView { return sp.targets[0].sc.v }

// job is one in-flight period: the spec that owns it, its arena, its
// product sinks and the completion accounting that decides when it can
// be finalised.
type job struct {
	spec       *jobSpec
	numWindows int64
	csr        *temporal.CSR

	// pending counts unfinished tasks; contrib counts workers holding
	// unflushed occupancy products for this job. The job finalises when
	// both reach zero; finalized arbitrates the single finaliser.
	pending   atomic.Int32
	contrib   atomic.Int32
	finalized atomic.Bool

	mu       sync.Mutex // guards chunks, occTotal
	chunks   [][]float64
	occTotal int

	sink  *temporal.DistSink // per-destination slots, written lock-free
	stats series.Stats       // written by the stats task

	// shards flattens every target observer's TripShard for the block
	// fan-out; targetShards maps them back per (target, observer) for
	// finalize (nil rows/entries for non-sharded observers).
	shards       []TripShard
	targetShards [][]TripShard
}

type task struct {
	j     *job
	block int // destination block, or statsBlock
}

type engine struct {
	ctx     context.Context
	opt     Options
	scopes  []*scope
	specs   []*jobSpec
	n       int // node count, shared by every scope
	workers int
	blocks  int

	sem   chan struct{}
	tasks chan task
	wg    sync.WaitGroup

	aborted  atomic.Bool
	errMu    sync.Mutex
	firstErr error

	// Per-run instrumentation mirrored into Options.Stats and the
	// Progress events (the package-level counters aggregate across
	// concurrent runs and cannot serve either).
	runBuilds        atomic.Int64
	runAlive         atomic.Int64
	runMaxAlive      atomic.Int64
	runArenaHanded   atomic.Int64
	runArenaReused   atomic.Int64
	runArenaRecycled atomic.Int64
	periodsDone      atomic.Int64
	periodsTotal     int
	dedups           int64 // fixed before run starts
	streamBuilds     int64 // fixed before run starts

	progMu sync.Mutex
}

// buildCSRArena builds one period CSR through the size-classed arena
// pool, folding the hand into the run's arena accounting.
func (e *engine) buildCSRArena(events []linkstream.Event, t0, delta int64, scratch *temporal.CSRScratch) *temporal.CSR {
	c := temporal.BuildCSRArena(events, t0, delta, e.n, scratch)
	if c.ArenaBacked() {
		e.runArenaHanded.Add(1)
		if c.ArenaReused() {
			e.runArenaReused.Add(1)
		}
	}
	return c
}

// recycleCSR hands an arena-backed CSR back to the pool, counting it in
// the run's arena accounting; plain-built CSRs and nil are no-ops.
func (e *engine) recycleCSR(c *temporal.CSR) {
	if c != nil && c.ArenaBacked() {
		e.runArenaRecycled.Add(1)
	}
	temporal.RecycleCSR(c)
}

func (e *engine) fail(err error) {
	if err == nil {
		return
	}
	e.errMu.Lock()
	if e.firstErr == nil {
		e.firstErr = err
	}
	e.errMu.Unlock()
	e.aborted.Store(true)
}

// emitStage delivers one serialised progress event for a non-period
// milestone (StagePlanned, StageStreamTrips).
func (e *engine) emitStage(stage Stage, delta int64) {
	if e.opt.Progress == nil {
		return
	}
	e.progMu.Lock()
	defer e.progMu.Unlock()
	e.opt.Progress(ProgressEvent{
		Stage:        stage,
		Delta:        delta,
		PeriodsDone:  int(e.periodsDone.Load()),
		PeriodsTotal: e.periodsTotal,
		Builds:       e.runBuilds.Load(),
		Dedups:       e.dedups,
		StreamBuilds: e.streamBuilds,
	})
}

// emitPeriods advances the per-run period counter by n and, when a
// progress hook is registered, delivers one serialised StagePeriod
// event for the batch.
func (e *engine) emitPeriods(n int, delta int64) {
	done := e.periodsDone.Add(int64(n))
	if e.opt.Progress == nil {
		return
	}
	e.progMu.Lock()
	defer e.progMu.Unlock()
	e.opt.Progress(ProgressEvent{
		Stage:        StagePeriod,
		Delta:        delta,
		PeriodsDone:  int(done),
		PeriodsTotal: e.periodsTotal,
		Builds:       e.runBuilds.Load(),
		Dedups:       e.dedups,
		StreamBuilds: e.streamBuilds,
	})
}

func (e *engine) run() error {
	// A cancellation watcher aborts the pipeline the moment ctx is
	// done, without any worker having to poll: workers and the producer
	// observe e.aborted on their next task or spec. The watcher is torn
	// down before run returns, so no goroutine outlives the pass.
	if e.ctx.Done() != nil {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-e.ctx.Done():
				e.fail(e.ctx.Err())
			case <-stop:
			}
		}()
	}
	for i := 0; i < e.workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	e.produce()
	e.wg.Wait()
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.firstErr
}

// produce observes the inline (stream-level only) scopes, then builds
// one CSR per deduplicated (window, ∆) spec — each exactly once, fanned
// to every target — and enqueues its tasks, blocking on the in-flight
// semaphore so no more than MaxInFlight periods are ever resident
// across all scopes.
func (e *engine) produce() {
	defer close(e.tasks)
	for _, sc := range e.scopes {
		if sc.needs.perPeriod() {
			continue
		}
		// Stream-level observers only: no CSR, no sweep — one cheap
		// sequential pass over the scope's grid.
		for i, delta := range sc.v.Grid {
			if e.aborted.Load() {
				return
			}
			p := &Period{Index: i, Delta: delta, T0: sc.v.T0, NumWindows: (sc.v.T1-sc.v.T0)/delta + 1}
			for _, o := range sc.seg.Observers {
				if err := o.ObservePeriod(p); err != nil {
					e.fail(err)
					return
				}
			}
			e.emitPeriods(1, delta)
		}
	}
	var scratch temporal.CSRScratch
	for _, sp := range e.specs {
		if e.aborted.Load() {
			return
		}
		// Acquire the in-flight slot or bail on cancellation: the slots
		// are released by finalize, which keeps running for already
		// admitted periods even after an abort, so this select never
		// deadlocks.
		select {
		case e.sem <- struct{}{}:
		case <-e.ctx.Done():
			e.fail(e.ctx.Err())
			return
		}
		if e.aborted.Load() {
			<-e.sem
			return
		}
		v := sp.view()
		j := &job{spec: sp, numWindows: (v.T1-v.T0)/sp.delta + 1}
		j.csr = e.buildCSRArena(v.Events, v.T0, sp.delta, &scratch)
		periodBuilds.Add(1)
		e.runBuilds.Add(1)
		runAlive := e.runAlive.Add(1)
		for {
			m := e.runMaxAlive.Load()
			if runAlive <= m || e.runMaxAlive.CompareAndSwap(m, runAlive) {
				break
			}
		}
		alive := periodsAlive.Add(1)
		for {
			m := maxAlive.Load()
			if alive <= m || maxAlive.CompareAndSwap(m, alive) {
				break
			}
		}
		ntasks := 0
		if sp.needs.sweeps() {
			ntasks += e.blocks
			if sp.needs.Distances {
				j.sink = temporal.NewDistSink(e.n, 0, 1)
			}
			if sp.needs.TripShards {
				for _, tgt := range sp.targets {
					var row []TripShard
					for _, o := range tgt.sc.seg.Observers {
						var sh TripShard
						if so, ok := o.(ShardedTripObserver); ok && o.Needs().TripShards {
							sh = so.NewTripShard(sp.delta, e.blocks, temporal.LaneWidth)
							j.shards = append(j.shards, sh)
						}
						row = append(row, sh)
					}
					j.targetShards = append(j.targetShards, row)
				}
			}
		}
		if sp.needs.WindowStats {
			ntasks++
		}
		if ntasks == 0 {
			// Snapshot-only specs (Needs.Snapshots or EdgeWeights
			// without any sweep or stats product): the CSR just built,
			// weights included, is the product, so finalize hands it
			// to the observers right here.
			e.finalize(j)
			continue
		}
		j.pending.Store(int32(ntasks))
		if sp.needs.WindowStats {
			e.tasks <- task{j: j, block: statsBlock}
		}
		if sp.needs.sweeps() {
			for b := 0; b < e.blocks; b++ {
				e.tasks <- task{j: j, block: b}
			}
		}
	}
}

// worker drains the task channel with one pooled sweep context. The
// occupancy sink is worker-local and flushed into a job when the worker
// moves to a later period, would otherwise block on an empty channel,
// or exits — so in the steady state each worker flushes each period
// once, and a job never waits on a worker that is busy elsewhere.
func (e *engine) worker() {
	defer e.wg.Done()
	w := temporal.NewWorker(e.n)
	defer w.Release()
	// laneBuf receives one block's trip lanes, recycled once every
	// shard has scored them.
	laneBuf := make([][]temporal.Trip, temporal.LaneWidth)
	var cur *job // job the worker's occupancy sink holds data for

	flush := func() {
		if cur == nil {
			return
		}
		j := cur
		cur = nil
		chunks, total := w.TakeOccupancies()
		if total > 0 {
			j.mu.Lock()
			j.chunks = append(j.chunks, chunks...)
			j.occTotal += total
			j.mu.Unlock()
		}
		j.contrib.Add(-1)
		e.maybeFinalize(j)
	}

	for {
		var t task
		select {
		case tt, ok := <-e.tasks:
			if !ok {
				flush()
				return
			}
			t = tt
		default:
			// Nothing ready: flush so no job waits on this worker's
			// sink, then block for more work.
			flush()
			tt, ok := <-e.tasks
			if !ok {
				return
			}
			t = tt
		}

		j := t.j
		if e.aborted.Load() {
			j.pending.Add(-1)
			e.maybeFinalize(j)
			continue
		}
		if t.block == statsBlock {
			j.stats = e.windowStats(j)
		} else {
			needs := j.spec.needs
			if needs.Occupancies && cur != j {
				flush()
				cur = j
				j.contrib.Add(1)
			}
			if needs.TripShards || needs.Distances {
				w.SweepFullBlock(j.csr, e.opt.Directed, t.block,
					needs.TripShards, needs.Occupancies, j.sink, laneBuf)
				if needs.TripShards {
					// Sharded scoring runs right here, on the sweeping
					// worker, so a period's trip scans parallelise
					// across blocks like the sweeps themselves do; the
					// block is released once every shard has seen it —
					// the period never holds its trips whole.
					for _, sh := range j.shards {
						if err := sh.ObserveTripBlock(t.block, laneBuf); err != nil {
							e.fail(err)
							break
						}
					}
					temporal.RecycleTrips(laneBuf...)
					clear(laneBuf)
				}
			} else {
				// Pure occupancy: the blocked lane sweep.
				w.SweepOccupancyBlock(j.csr, e.opt.Directed, t.block)
			}
		}
		j.pending.Add(-1)
		e.maybeFinalize(j)
	}
}

func (e *engine) maybeFinalize(j *job) {
	if j.pending.Load() != 0 || j.contrib.Load() != 0 {
		return
	}
	if !j.finalized.CompareAndSwap(false, true) {
		return
	}
	e.finalize(j)
}

// finalize assembles the period view and hands it to every target
// scope's observers in registration order — the windowed routing: a
// period's products only ever reach the segments that requested it,
// and coinciding (window, ∆) targets share the one set of products —
// then releases everything the period held (arena, chunks, trips)
// before freeing the in-flight slot. It runs on whichever worker
// completed the period, so observer scoring overlaps other periods'
// sweeps.
func (e *engine) finalize(j *job) {
	defer func() {
		// Recycling lives here, on every exit path — a cancelled or
		// observer-failed period must hand its arena and occupancy
		// chunks back exactly like a completed one, or a mid-sweep
		// abort leaks them from the pools for good.
		if j.chunks != nil {
			temporal.RecycleOccupancies(j.chunks)
		}
		e.recycleCSR(j.csr)
		j.csr = nil
		j.chunks = nil
		j.sink = nil
		j.shards = nil
		j.targetShards = nil
		periodsAlive.Add(-1)
		e.runAlive.Add(-1)
		<-e.sem
	}()
	if e.aborted.Load() {
		return
	}
	sp := j.spec
	var distStats temporal.DistanceStats
	if sp.needs.Distances {
		distStats = j.sink.Stats()
	}
	for ti, tgt := range sp.targets {
		sc := tgt.sc
		p := &Period{Index: tgt.idx, Delta: sp.delta, T0: sc.v.T0, NumWindows: j.numWindows}
		if sc.needs.Occupancies {
			p.OccupancyChunks = j.chunks
			p.OccupancyCount = j.occTotal
		}
		if sc.needs.Distances {
			p.Distances = distStats
		}
		if sc.needs.WindowStats {
			p.Windows = j.stats
		}
		if sc.needs.Snapshots {
			p.Graph = j.csr
		}
		if sc.needs.EdgeWeights {
			p.EdgeWeights = j.csr.Weights
		}
		for oi, o := range sc.seg.Observers {
			p.Shard = nil
			if j.targetShards != nil {
				p.Shard = j.targetShards[ti][oi]
			}
			if err := o.ObservePeriod(p); err != nil {
				e.fail(err)
				return
			}
		}
	}
	e.emitPeriods(len(sp.targets), sp.delta)
}

// windowStats scores the classical per-snapshot properties straight off
// the period's CSR arena: each layer is exactly one non-empty window's
// already-deduplicated edge set, so neither a Series nor a
// snapshot.Graph is ever materialised — non-isolated counts and the
// largest component come from one stamped union-find over the layer's
// edges, with per-window values and accumulation order identical to
// series.ComputeStatsFromLayers. The bit-exact equivalence tests in
// classic (Curve vs CurveReference) pin the two implementations
// together; a change to either must keep them in lockstep.
func (e *engine) windowStats(j *job) series.Stats {
	c, n := j.csr, e.n
	st := series.Stats{Delta: j.spec.delta, NumWindows: j.numWindows, NonEmptyWindows: c.NumLayers()}
	if j.numWindows == 0 {
		return st
	}
	// Stamped union-find scratch: nodes are initialised lazily per
	// layer, so a layer costs O(its edges), not O(n).
	parent := make([]int32, n)
	size := make([]int32, n)
	stamp := make([]int32, n)
	for i := range stamp {
		stamp[i] = -1
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	var sumDensity, sumDegree, sumNonIso, sumLCC float64
	for li := 0; li < c.NumLayers(); li++ {
		lo, hi := c.Off[li], c.Off[li+1]
		m := hi - lo
		st.TotalEdges += m
		if m > st.MaxSnapshotEdges {
			st.MaxSnapshotEdges = m
		}
		epoch := int32(li)
		nonIso := 0
		largest := int32(1)
		touch := func(x int32) int32 {
			if stamp[x] != epoch {
				stamp[x] = epoch
				parent[x] = x
				size[x] = 1
				nonIso++
			}
			return find(x)
		}
		for t := lo; t < hi; t++ {
			ru, rv := touch(c.Ends[2*t]), touch(c.Ends[2*t+1])
			if ru == rv {
				continue
			}
			if size[ru] < size[rv] {
				ru, rv = rv, ru
			}
			parent[rv] = ru
			size[ru] += size[rv]
			if size[ru] > largest {
				largest = size[ru]
			}
		}
		// Same per-window quantities, in the same accumulation order,
		// as snapshot.Graph's Density/NonIsolated/LargestComponent fed
		// through series.ComputeStatsFromLayers.
		if n >= 2 {
			pairs := float64(n) * float64(n-1)
			if e.opt.Directed {
				sumDensity += float64(m) / pairs
			} else {
				sumDensity += 2 * float64(m) / pairs
			}
		}
		if n > 0 {
			if e.opt.Directed {
				sumDegree += float64(m) / float64(n)
			} else {
				sumDegree += 2 * float64(m) / float64(n)
			}
		}
		sumNonIso += float64(nonIso)
		sumLCC += float64(largest)
	}
	// Empty windows contribute 0 to everything except the largest
	// component, which is 1 (a single isolated node) when N > 0.
	empty := float64(j.numWindows) - float64(c.NumLayers())
	if n > 0 {
		sumLCC += empty
	}
	k := float64(j.numWindows)
	st.MeanDensity = sumDensity / k
	st.MeanDegree = sumDegree / k
	st.MeanNonIsolated = sumNonIso / k
	st.MeanLargestComp = sumLCC / k
	st.MeanSnapshotEdges = float64(st.TotalEdges) / k
	return st
}
