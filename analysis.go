package repro

// This file implements the plan/run lifecycle, the package's single
// execution path: NewAnalysis freezes a request — metrics, candidate
// grids, windows, refinement policy, engine budgets — into an immutable
// Plan, and Plan.Run(ctx) executes it as fused sweep-engine passes with
// context cancellation, progress streaming and per-run engine
// statistics. Every plan, adaptive ones included, runs its scopes
// through one round driver (driveScopes).

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/adaptive"
	"repro/internal/classic"
	"repro/internal/core"
	"repro/internal/linkstream"
	"repro/internal/metrics"
	"repro/internal/sweep"
	"repro/internal/validate"
)

// ErrNoEvents is returned when an analysis is requested over a stream
// with no events.
var ErrNoEvents = errors.New("repro: stream has no events")

// ErrPlanTooLarge is returned, wrapped with the offending option and
// its bound, when an option whose value becomes an allocation size
// exceeds its limit (MaxGridPoints, MaxRefine, MaxAdaptiveBins,
// MaxWindows). MaxGridPoints bounds explicit grids too: the WithGrid
// grid and each Window.Grid may hold at most MaxGridPoints periods,
// like a derived grid. MaxWindows bounds the number of WithWindows
// windows, each a scope with its own grid.
var ErrPlanTooLarge = errors.New("repro: plan exceeds a size limit")

// Limits on the options whose value becomes an allocation size: a
// derived grid pre-allocates one slot per requested point (WithGridPoints,
// and WithRefine's refinement grid), an explicit grid (WithGrid,
// Window.Grid) one result slot and one period job per entry, adaptive
// bins size one counter array per stream, and every window is a scope
// with its own grid and results.
// NewAnalysis rejects larger values, so an oversized spec fails before
// any allocation.
const (
	MaxGridPoints   = 1 << 12
	MaxRefine       = 1 << 12
	MaxAdaptiveBins = 1 << 16
	MaxWindows      = 1 << 12
)

// checkLimits enforces the allocation-size limits on the options.
func (c *planConfig) checkLimits() error {
	adaptiveBins := 0
	if c.adaptive != nil {
		adaptiveBins = c.adaptive.Bins
	}
	windowGrid := 0
	for _, w := range c.windows {
		windowGrid = max(windowGrid, len(w.Grid))
	}
	for _, l := range []struct {
		name   string
		v, max int
	}{
		{"grid points", c.gridPoints, MaxGridPoints},
		{"explicit grid length", len(c.grid), MaxGridPoints},
		{"windows", len(c.windows), MaxWindows},
		{"window grid length", windowGrid, MaxGridPoints},
		{"refine", c.refine, MaxRefine},
		{"adaptive bins", adaptiveBins, MaxAdaptiveBins},
	} {
		if l.v > l.max {
			return fmt.Errorf("%w: %s %d exceeds %d", ErrPlanTooLarge, l.name, l.v, l.max)
		}
	}
	return nil
}

// Plan is an immutable, validated analysis request: which metrics to
// compute, over which candidate grids and windows, under which
// refinement policy and engine budgets. Build one with NewAnalysis and
// execute it with Run; a Plan can be Run any number of times (each Run
// is an independent execution reading the stream's current contents).
type Plan struct {
	s   *Stream
	col *linkstream.Columnar // non-nil for WithStreamPath columnar plans
	cfg planConfig

	// Lazy whole-file materialisation of a columnar plan's stream, for
	// consumers that need an in-memory Stream (adaptive segmentation,
	// ComputeStats); the engine itself never goes through it.
	matOnce sync.Once
	mat     *Stream
	matErr  error

	// Close is idempotent: the mapping is released exactly once however
	// many times (or from however many goroutines) Close is called.
	closeOnce sync.Once
	closeErr  error
}

// NewAnalysis builds an analysis plan over the stream. The zero-option
// plan is the paper's default analysis: the occupancy method over a
// logarithmic candidate grid spanning the stream's resolution to its
// whole period of study, undirected, M-K proximity selection, no
// refinement. Options compose freely — e.g.
//
//	plan, err := repro.NewAnalysis(s,
//	    repro.WithMetrics(repro.MetricOccupancy, repro.MetricTransitionLoss),
//	    repro.WithRefine(4),
//	    repro.WithMaxInFlight(4),
//	    repro.WithProgress(func(ev repro.ProgressEvent) { ... }),
//	)
//	report, err := plan.Run(ctx)
//
// Every metric, window and custom observer of one plan shares a single
// fused engine pass, and a refined plan one more for the refinement
// grids of its occupancy searches: the stream is sorted once,
// each distinct (window, ∆) aggregation is built and swept exactly
// once, and at most the configured MaxInFlight periods are resident at
// any moment.
func NewAnalysis(s *Stream, opts ...Option) (*Plan, error) {
	cfg := planConfig{}
	cfg.metrics[MetricOccupancy] = true // default metric set
	for _, o := range opts {
		if o == nil {
			continue
		}
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	if err := cfg.checkLimits(); err != nil {
		return nil, err
	}
	var col *linkstream.Columnar
	if cfg.streamPath != "" {
		if s != nil {
			return nil, errors.New("repro: WithStreamPath and a non-nil stream are mutually exclusive")
		}
		var err error
		s, col, err = openStreamPath(cfg.streamPath)
		if err != nil {
			return nil, err
		}
	}
	if s == nil && col == nil {
		return nil, errors.New("repro: nil stream")
	}
	numEvents := 0
	if col != nil {
		numEvents = col.NumEvents()
	} else {
		numEvents = s.NumEvents()
	}
	if numEvents == 0 {
		if col != nil {
			col.Close()
		}
		return nil, ErrNoEvents
	}
	if cfg.gridSet && len(cfg.grid) == 0 {
		return nil, errors.New("repro: empty candidate grid")
	}
	if cfg.adaptive != nil {
		switch {
		case len(cfg.windows) > 0:
			return nil, errors.New("repro: WithAdaptive and WithWindows cannot be combined: the adaptive segmentation chooses its own windows")
		case len(cfg.segments) > 0:
			return nil, errors.New("repro: WithAdaptive and WithSegments cannot be combined")
		case cfg.gridSet:
			return nil, errors.New("repro: WithAdaptive derives its own candidate grids; shape them with WithGridPoints and WithMinDelta instead of WithGrid")
		}
	}
	if !cfg.gridSet {
		// Resolution/Duration sort an in-memory stream as a side effect,
		// so they are only consulted when a grid must be derived — an
		// explicit WithGrid leaves the stream untouched until Run. The
		// columnar header answers both without touching the columns.
		lo := cfg.minDelta
		if lo <= 0 {
			if col != nil {
				lo = col.Resolution()
			} else {
				lo = s.Resolution()
			}
		}
		dur := int64(0)
		if col != nil {
			dur = col.Duration()
		} else {
			dur = s.Duration()
		}
		cfg.grid = core.LogGrid(lo, dur, cfg.points())
	}
	if cfg.adaptive == nil && !cfg.anyMetric() && len(cfg.observers) == 0 && len(cfg.segments) == 0 {
		return nil, errors.New("repro: analysis plan computes nothing: select metrics, observers or segments")
	}
	if len(cfg.windows) > 0 && !cfg.anyMetric() {
		return nil, errors.New("repro: plan windows need at least one metric")
	}
	if cfg.noGlobal {
		switch {
		case cfg.adaptive != nil:
			return nil, errors.New("repro: WithWindowsOnly and WithAdaptive cannot be combined")
		case len(cfg.windows) == 0:
			return nil, errors.New("repro: WithWindowsOnly needs WithWindows windows to analyse")
		case len(cfg.observers) > 0:
			return nil, errors.New("repro: WithWindowsOnly drops the global scope custom observers attach to")
		}
	}
	return &Plan{s: s, col: col, cfg: cfg}, nil
}

// openStreamPath opens a stream file by its leading magic: columnar
// (LSC) files become a memory-mapped view handed to the engine as-is,
// binary (LSB) and text files are parsed into memory.
func openStreamPath(path string) (*Stream, *linkstream.Columnar, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	var magic [4]byte
	n, _ := io.ReadFull(f, magic[:])
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	if n == 4 && linkstream.IsColumnarMagic(magic[:]) {
		f.Close()
		col, err := linkstream.OpenMapped(path)
		if err != nil {
			return nil, nil, err
		}
		return nil, col, nil
	}
	defer f.Close()
	s := NewStream()
	if err := s.ReadAny(f); err != nil {
		return nil, nil, err
	}
	return s, nil, nil
}

// engineSource returns what the engine passes consume: the mapped
// columnar view for WithStreamPath columnar plans (pre-sorted, sliced
// through the file's skip index), the in-memory stream otherwise.
func (p *Plan) engineSource() sweep.StreamSource {
	if p.col != nil {
		return p.col
	}
	return p.s
}

// Stream returns the plan's stream: the one NewAnalysis received, or —
// for a WithStreamPath columnar plan — the file's contents materialised
// into memory (decoded once and cached). The engine does not use this
// path; it exists for consumers that need the whole stream in memory,
// like the adaptive segmentation and ComputeStats.
func (p *Plan) Stream() (*Stream, error) {
	if p.s != nil {
		return p.s, nil
	}
	p.matOnce.Do(func() { p.mat, p.matErr = p.col.Stream() })
	return p.mat, p.matErr
}

// Close releases resources a WithStreamPath plan holds on behalf of
// the caller — the columnar file mapping. Plans over in-memory streams
// hold nothing. Close is idempotent and safe for concurrent use: the
// first call unmaps, every later call returns the same result without
// touching the mapping again.
func (p *Plan) Close() error {
	if p.col == nil {
		return nil
	}
	p.closeOnce.Do(func() { p.closeErr = p.col.Close() })
	return p.closeErr
}

// Run executes the plan and returns its Report. An already-cancelled
// ctx returns ctx.Err() immediately, before the stream is even sorted;
// a ctx cancelled mid-run aborts the engine at its next scheduling
// point — in-flight periods drain, pooled buffers are recycled, the
// worker pools exit before Run returns, and results of periods whose
// observers already ran are simply discarded with the Report.
func (p *Plan) Run(ctx context.Context) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if p.cfg.adaptive != nil {
		return p.runAdaptive(ctx)
	}
	return p.runStandard(ctx)
}

// metricObservers is the per-scope set of built-in curve observers a
// plan registers (the occupancy metric is driven separately, through
// core.ScaleSearch, because only it refines).
type metricObservers struct {
	cls   *ClassicObserver
	dst   *DistanceObserver
	loss  *TransitionLossObserver
	elong *ElongationObserver
	deg   *metrics.DegreeObserver
	clu   *metrics.ClusteringObserver
	comp  *metrics.ComponentsObserver
	core  *metrics.CorenessObserver
	wgt   *metrics.WeightedObserver
}

// newMetricObservers returns fresh observers for the plan's non-occupancy
// metrics, plus the registration list in a fixed order.
func (p *Plan) newMetricObservers() (metricObservers, []sweep.Observer) {
	var mo metricObservers
	var obs []sweep.Observer
	if p.cfg.metricOn(MetricClassic) {
		mo.cls = classic.NewObserver()
		obs = append(obs, mo.cls)
	}
	if p.cfg.metricOn(MetricDistance) {
		mo.dst = sweep.NewDistanceObserver()
		obs = append(obs, mo.dst)
	}
	if p.cfg.metricOn(MetricTransitionLoss) {
		mo.loss = validate.NewTransitionLossObserver()
		obs = append(obs, mo.loss)
	}
	if p.cfg.metricOn(MetricElongation) {
		mo.elong = validate.NewElongationObserver()
		mo.elong.SpillBytes = p.cfg.elongSpill
		obs = append(obs, mo.elong)
	}
	if p.cfg.metricOn(MetricDegree) {
		mo.deg = metrics.NewDegreeObserver()
		obs = append(obs, mo.deg)
	}
	if p.cfg.metricOn(MetricClustering) {
		mo.clu = metrics.NewClusteringObserver()
		obs = append(obs, mo.clu)
	}
	if p.cfg.metricOn(MetricComponents) {
		mo.comp = metrics.NewComponentsObserver()
		obs = append(obs, mo.comp)
	}
	if p.cfg.metricOn(MetricCoreness) {
		mo.core = metrics.NewCorenessObserver()
		obs = append(obs, mo.core)
	}
	if p.cfg.metricOn(MetricWeighted) {
		mo.wgt = metrics.NewWeightedObserver()
		obs = append(obs, mo.wgt)
	}
	return mo, obs
}

// curves collects the observers' results after a successful run.
func (mo metricObservers) curves() Curves {
	var cv Curves
	if mo.cls != nil {
		cv.Classic = mo.cls.Points()
	}
	if mo.dst != nil {
		cv.Distance = mo.dst.Points()
	}
	if mo.loss != nil {
		cv.TransitionLoss = mo.loss.Points()
	}
	if mo.elong != nil {
		cv.Elongation = mo.elong.Points()
	}
	// Snapshot-metric curves, in enum order.
	if mo.deg != nil {
		cv.Snapshots = append(cv.Snapshots, mo.deg.Curve())
	}
	if mo.clu != nil {
		cv.Snapshots = append(cv.Snapshots, mo.clu.Curve())
	}
	if mo.comp != nil {
		cv.Snapshots = append(cv.Snapshots, mo.comp.Curve())
	}
	if mo.core != nil {
		cv.Snapshots = append(cv.Snapshots, mo.core.Curve())
	}
	if mo.wgt != nil {
		cv.Snapshots = append(cv.Snapshots, mo.wgt.Curve())
	}
	return cv
}

// points returns the resolution of derived candidate grids: the
// WithGridPoints value, or the default — adaptive.DefaultGridPoints for
// adaptive plans, core.DefaultGridPoints otherwise.
func (c *planConfig) points() int {
	switch {
	case c.gridPoints > 0:
		return c.gridPoints
	case c.adaptive != nil:
		return adaptive.DefaultGridPoints
	}
	return core.DefaultGridPoints
}

// derivedGrid returns the logarithmic candidate grid of the events in
// [start, end) — from their own resolution to their own span — and the
// number of those events; the grid is nil when there are none. A
// columnar source materialises just the window's span, through the skip
// index, not the whole file.
func (p *Plan) derivedGrid(start, end int64) ([]int64, int, error) {
	sub, _, err := p.engineSource().EngineEvents(start, end, false)
	if err != nil || len(sub) == 0 {
		return nil, 0, err
	}
	return core.LogGrid(linkstream.EventsResolution(sub), linkstream.EventsDuration(sub), p.cfg.points()), len(sub), nil
}

// windowGrids resolves the candidate grid of every plan window, in
// WithWindows order: an explicit Window.Grid is used as-is, an empty
// one is the window's derivedGrid. The shard partitioner
// (PartitionSpec) calls this too, so coordinator-side chunking and a
// local run resolve identical grids.
func (p *Plan) windowGrids() ([][]int64, error) {
	c := &p.cfg
	grids := make([][]int64, len(c.windows))
	for i, w := range c.windows {
		grid := w.Grid
		if len(grid) == 0 {
			var n int
			var err error
			if grid, n, err = p.derivedGrid(w.Start, w.End); err != nil {
				return nil, err
			}
			if n == 0 {
				return nil, fmt.Errorf("repro: window [%d, %d) has no events", w.Start, w.End)
			}
		}
		grids[i] = grid
	}
	return grids, nil
}

// scopeRun is one scope of a run — the global scope, one plan window
// or one adaptive activity segment — as the round driver advances it,
// locally or distributed.
type scopeRun struct {
	scope      int     // GlobalScope, or the plan window's or activity segment's index
	start, end int64   // engine window bounds; 0,0 selects the whole stream
	grid       []int64 // the scope's whole candidate grid, scored in round 0
	search     *core.ScaleSearch
	segment    bool        // an adaptive activity segment: occupancy search only
	shards     []ShardPlan // round-0 chunk shards of a distributed run
	cv         Curves
	res        Result
	hasRes     bool
}

// scopes builds the scopes of a non-adaptive run in report order: the
// global scope (unless the plan drops it or has nothing to attach to
// it), then every plan window, each with an occupancy search when the
// plan computes occupancy.
func (p *Plan) scopes() ([]*scopeRun, error) {
	c := &p.cfg
	var scopes []*scopeRun
	if (c.anyMetric() || len(c.observers) > 0) && !c.noGlobal {
		scopes = append(scopes, &scopeRun{scope: GlobalScope, grid: c.grid})
	}
	if len(c.windows) > 0 {
		grids, err := p.windowGrids()
		if err != nil {
			return nil, err
		}
		for i, w := range c.windows {
			scopes = append(scopes, &scopeRun{scope: i, start: w.Start, end: w.End, grid: grids[i]})
		}
	}
	if !c.metricOn(MetricOccupancy) {
		return scopes, nil
	}
	for _, sr := range scopes {
		search, err := c.newSearch(sr.grid)
		if err != nil {
			if sr.scope != GlobalScope {
				err = fmt.Errorf("repro: window [%d, %d): %w", sr.start, sr.end, err)
			}
			return nil, err
		}
		sr.search = search
	}
	return scopes, nil
}

// newSearch stages the plan's occupancy search over grid.
func (c *planConfig) newSearch(grid []int64) (*core.ScaleSearch, error) {
	return core.NewScaleSearch(core.Options{
		Selectors: c.selectors,
		Refine:    c.refine,
		Grid:      grid,
	})
}

// roundExecutor scores one round of a run: grids[i] for
// scopes[i], returning each scope's curves in scope order. Round 0
// carries every scope's whole grid and computes every metric; a later
// round carries the fresh ∆s of still-refining occupancy searches and
// only its Occupancy curve is read.
type roundExecutor func(ctx context.Context, round int, scopes []*scopeRun, grids [][]int64) ([]Curves, error)

// driveScopes is the one round driver of every run — standard and
// adaptive, local and distributed: each round collects the grid every
// scope's occupancy search stages (NextGrid), has exec score the round,
// and folds the scored points back (AbsorbPoints), until every search
// has converged. Scopes without a search take part in round 0 only.
func driveScopes(ctx context.Context, scopes []*scopeRun, exec roundExecutor) error {
	for round := 0; ; round++ {
		var active []*scopeRun
		var grids [][]int64
		for _, sr := range scopes {
			grid := sr.grid
			if sr.search != nil {
				g, ok := sr.search.NextGrid()
				if !ok {
					continue
				}
				grid = g
			} else if round > 0 {
				continue
			}
			active = append(active, sr)
			grids = append(grids, grid)
		}
		if round > 0 && len(active) == 0 {
			break
		}
		cvs, err := exec(ctx, round, active, grids)
		if err != nil {
			return err
		}
		for i, sr := range active {
			if round == 0 {
				sr.cv = cvs[i]
			}
			if sr.search != nil {
				if err := sr.search.AbsorbPoints(cvs[i].Occupancy); err != nil {
					return err
				}
			}
		}
	}
	for _, sr := range scopes {
		if sr.search == nil {
			continue
		}
		res, err := sr.search.Result()
		if err != nil {
			return err
		}
		sr.res, sr.hasRes = res, true
		sr.cv.Occupancy = res.Points
	}
	return nil
}

// scopeReport assembles the Report of driven scopes: the global scope's
// curves and scale, then one WindowReport per window scope. Adaptive
// segment scopes report through adaptive.Analysis instead.
func scopeReport(scopes []*scopeRun) *Report {
	rep := &Report{}
	for _, sr := range scopes {
		if sr.scope == GlobalScope {
			rep.global = sr.cv
			rep.scale, rep.hasScale = sr.res, sr.hasRes
		} else {
			rep.windows = append(rep.windows, WindowReport{
				Start: sr.start, End: sr.end,
				Scale: sr.res, Curves: sr.cv,
			})
		}
	}
	return rep
}

// runStandard executes the plan's scopes — the global analysis, every
// window, every raw segment — through the round driver, one fused
// engine pass per round.
func (p *Plan) runStandard(ctx context.Context) (*Report, error) {
	scopes, err := p.scopes()
	if err != nil {
		return nil, err
	}
	var stats EngineStats
	if err := driveScopes(ctx, scopes, p.localRound(&stats)); err != nil {
		return nil, err
	}
	rep := scopeReport(scopes)
	rep.stats = stats
	return rep, nil
}

// localRound is the in-process round executor: the whole round is one
// fused sweep.RunSource pass over every active scope. Round 0 carries
// each scope's occupancy observer, the curve observers of every scope
// but adaptive segments and — on the global scope — the custom
// observers, plus the plan's raw segments; later rounds carry only the
// refining occupancy observers.
func (p *Plan) localRound(stats *EngineStats) roundExecutor {
	c := &p.cfg
	engOpt := sweep.Options{
		Directed:    c.directed,
		Workers:     c.workers,
		MaxInFlight: c.maxInFlight,
		Stats:       stats,
	}
	return func(ctx context.Context, round int, scopes []*scopeRun, grids [][]int64) ([]Curves, error) {
		batch := make([]sweep.SegmentObserver, 0, len(scopes)+len(c.segments))
		occ := make([]*core.OccupancyObserver, len(scopes))
		mos := make([]metricObservers, len(scopes))
		for i, sr := range scopes {
			var observers []sweep.Observer
			if sr.search != nil {
				occ[i] = core.NewOccupancyObserver(c.selectors)
				observers = append(observers, occ[i])
			}
			if round == 0 && !sr.segment {
				var mobs []sweep.Observer
				mos[i], mobs = p.newMetricObservers()
				observers = append(observers, mobs...)
				if sr.scope == GlobalScope {
					observers = append(observers, c.observers...)
				}
			}
			batch = append(batch, sweep.SegmentObserver{Start: sr.start, End: sr.end, Grid: grids[i], Observers: observers})
		}
		if round == 0 {
			batch = append(batch, c.segments...)
		}
		opt := engOpt
		if c.progress != nil {
			opt.Progress = func(ev ProgressEvent) {
				ev.Pass = round
				c.progress(ev)
			}
		}
		if err := sweep.RunSource(ctx, p.engineSource(), opt, batch...); err != nil {
			return nil, err
		}
		out := make([]Curves, len(scopes))
		for i := range scopes {
			out[i] = mos[i].curves()
			if occ[i] != nil {
				out[i].Occupancy = occ[i].Points()
			}
		}
		return out, nil
	}
}

// runAdaptive executes the activity-segmented analysis on the round
// driver. The global scope always carries an occupancy search, plus
// the plan's other metrics and custom observers; every segment of at
// least adaptive.MinSegmentEvents events adds an occupancy-only scope
// over its derivedGrid. Each round is one fused engine pass over all
// of them.
func (p *Plan) runAdaptive(ctx context.Context) (*Report, error) {
	c := &p.cfg
	// The segmentation needs the whole stream in memory; columnar plans
	// materialise it once here. The engine passes still read
	// engineSource.
	s, err := p.Stream()
	if err != nil {
		return nil, err
	}
	segs, twoMode, err := adaptive.Segments(s, *c.adaptive)
	if err != nil {
		return nil, err
	}
	global, err := c.newSearch(c.grid)
	if err != nil {
		return nil, err
	}
	scopes := []*scopeRun{{scope: GlobalScope, grid: c.grid, search: global}}
	for i, seg := range segs {
		grid, n, err := p.derivedGrid(seg.Start, seg.End)
		if err != nil {
			return nil, err
		}
		if n < adaptive.MinSegmentEvents {
			continue
		}
		search, err := c.newSearch(grid)
		if err != nil {
			return nil, fmt.Errorf("repro: segment [%d, %d): %w", seg.Start, seg.End, err)
		}
		scopes = append(scopes, &scopeRun{scope: i, start: seg.Start, end: seg.End, grid: grid, search: search, segment: true})
	}
	var stats EngineStats
	if err := driveScopes(ctx, scopes, p.localRound(&stats)); err != nil {
		return nil, err
	}
	res := scopes[0].res
	a := &adaptive.Analysis{Segments: segs, TwoMode: twoMode, Global: res, GlobalGamma: res.Gamma, MinGamma: res.Gamma}
	for _, sr := range scopes[1:] {
		a.Segments[sr.scope].Gamma = sr.res.Gamma
		a.MinGamma = min(a.MinGamma, sr.res.Gamma)
	}
	rep := scopeReport(scopes[:1])
	rep.adaptive, rep.stats = a, stats
	return rep, nil
}
