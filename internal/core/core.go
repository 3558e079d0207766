// Package core implements the paper's primary contribution: the
// occupancy method (Section 4), a fully automatic, parameter-free
// procedure that determines the saturation scale γ of a link stream —
// the largest aggregation period ∆ for which the aggregated graph series
// still faithfully describes the propagation properties of the stream.
//
// For every candidate ∆ the method aggregates the stream, enumerates the
// minimal trips of the series, computes the distribution of their
// occupancy rates and scores how uniformly the distribution spreads over
// [0,1] (by default via the Monge-Kantorovich proximity with the uniform
// density). γ is the ∆ maximising the score: below γ the distribution
// is still stretching (windows fill up without losing link-order
// information); beyond γ it contracts onto occupancy 1 (the loss of
// information dominates).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/dist"
	"repro/internal/linkstream"
	"repro/internal/sweep"
	"repro/internal/temporal"
)

// ErrNoEvents is returned when the stream has no event to analyse.
var ErrNoEvents = errors.New("core: stream has no events")

// Options configures the occupancy method. The zero value selects the
// paper's defaults: undirected analysis, M-K proximity selection, an
// automatically built logarithmic ∆ grid and all available CPUs.
type Options struct {
	// Directed preserves link orientation in snapshots and paths.
	Directed bool
	// Workers bounds engine parallelism; <= 0 means GOMAXPROCS.
	Workers int
	// Selectors are the uniformity measures to score each ∆ with. The
	// first selector decides γ. Default: M-K proximity only.
	Selectors []dist.Selector
	// Grid is the list of candidate aggregation periods. Empty means
	// DefaultGrid(stream, DefaultGridPoints).
	Grid []int64
	// Refine, when positive, adds that many extra grid points between
	// the neighbours of the best ∆ of the initial sweep and re-sweeps
	// once, sharpening γ beyond the grid resolution.
	Refine int
	// MaxInFlight bounds how many aggregation periods the sweep engine
	// keeps resident at once (CSR arena plus occupancy products); <= 0
	// selects the engine default. Peak sweep memory is
	// O(MaxInFlight × period footprint) instead of O(grid).
	MaxInFlight int
}

func (o Options) selectors() []dist.Selector {
	if len(o.Selectors) == 0 {
		return []dist.Selector{dist.MKProximitySelector{}}
	}
	return o.Selectors
}

// DefaultGridPoints is the number of candidate periods DefaultGrid
// produces.
const DefaultGridPoints = 48

// DefaultGrid builds a logarithmically spaced ∆ grid from the stream's
// timestamp resolution to its whole period of study, the range the
// paper sweeps.
func DefaultGrid(s *linkstream.Stream, points int) []int64 {
	lo := s.Resolution()
	hi := s.Duration()
	return LogGrid(lo, hi, points)
}

// LogGrid returns up to points geometrically spaced integers covering
// [lo, hi], deduplicated and always containing both endpoints.
func LogGrid(lo, hi int64, points int) []int64 {
	if lo < 1 {
		lo = 1
	}
	if hi < lo {
		hi = lo
	}
	if lo == hi {
		return []int64{lo}
	}
	if points < 2 {
		return []int64{lo, hi}
	}
	out := make([]int64, 0, points)
	ratio := math.Log(float64(hi) / float64(lo))
	var prev int64
	for i := 0; i < points; i++ {
		v := int64(math.Round(float64(lo) * math.Exp(ratio*float64(i)/float64(points-1))))
		if v < lo {
			v = lo
		}
		if v > hi {
			v = hi
		}
		if v != prev {
			out = append(out, v)
			prev = v
		}
	}
	if out[len(out)-1] != hi {
		out = append(out, hi)
	}
	return out
}

// LinearGrid returns points evenly spaced integers covering [lo, hi].
func LinearGrid(lo, hi int64, points int) []int64 {
	if hi < lo {
		hi = lo
	}
	if lo == hi {
		return []int64{lo}
	}
	if points < 2 {
		return []int64{lo, hi}
	}
	out := make([]int64, 0, points)
	var prev int64 = math.MinInt64
	for i := 0; i < points; i++ {
		v := lo + int64(math.Round(float64(hi-lo)*float64(i)/float64(points-1)))
		if v != prev {
			out = append(out, v)
			prev = v
		}
	}
	return out
}

// SweepPoint is the outcome of analysing one candidate period. The
// json tags are the wire contract of the serving layer (the root
// package's Report marshalling).
type SweepPoint struct {
	Delta  int64     `json:"delta"`
	Trips  int       `json:"trips"`  // number of minimal trips in G∆
	Scores []float64 `json:"scores"` // parallel to Options.Selectors
}

// Result is the outcome of the occupancy method.
type Result struct {
	// Gamma is the saturation scale: the ∆ maximising the primary
	// selector's score.
	Gamma int64 `json:"gamma"`
	// Score is the primary selector's score at Gamma.
	Score float64 `json:"score"`
	// Selector is the name of the primary selector.
	Selector string `json:"selector,omitempty"`
	// Points holds the full sweep curve (sorted by Delta), e.g. the
	// M-K proximity curve of Figure 3 (right).
	Points []SweepPoint `json:"points,omitempty"`
}

// OccupancySample aggregates the stream at period delta and returns the
// distribution of occupancy rates of the minimal trips of G∆ (the
// curves of Figure 3 left and Figure 4). The window partition is built
// directly into the engine's CSR arena, without materialising a Series.
func OccupancySample(s *linkstream.Stream, delta int64, opt Options) (*dist.Sample, error) {
	if s.NumEvents() == 0 {
		return nil, ErrNoEvents
	}
	if delta <= 0 {
		return nil, fmt.Errorf("core: non-positive aggregation period %d", delta)
	}
	if err := temporal.CheckBuildSize(s.NumEvents()); err != nil {
		return nil, err
	}
	events := sortedEvents(s, opt.Directed)
	var scratch temporal.CSRScratch
	c := temporal.BuildCSR(events, events[0].T, delta, &scratch)
	cfg := temporal.Config{N: s.NumNodes(), Directed: opt.Directed, Workers: opt.Workers}
	return dist.NewSample(temporal.OccupanciesCSR(cfg, c))
}

// sortedEvents sorts the stream and returns its event buffer, a
// canonicalised copy of it for undirected analyses. Sorting and
// canonicalising happen once per sweep, not once per candidate period.
func sortedEvents(s *linkstream.Stream, directed bool) []linkstream.Event {
	s.Sort()
	events := s.Events()
	if !directed {
		events = linkstream.Canonical(events)
	}
	return events
}

// OccupancyObserver is the occupancy method as a sweep-engine observer:
// it scores every period's exact occupancy sample with the configured
// selectors. Register it with sweep.Run — or a repro plan's
// WithObservers — to fuse the occupancy curve with other metrics in one
// pass.
type OccupancyObserver struct {
	sels   []dist.Selector
	points []SweepPoint
}

// NewOccupancyObserver returns an observer scoring with the given
// selectors (nil selects the paper's default, M-K proximity only).
func NewOccupancyObserver(sels []dist.Selector) *OccupancyObserver {
	if len(sels) == 0 {
		sels = []dist.Selector{dist.MKProximitySelector{}}
	}
	return &OccupancyObserver{sels: sels}
}

// Needs implements sweep.Observer.
func (o *OccupancyObserver) Needs() sweep.Needs { return sweep.Needs{Occupancies: true} }

// Begin implements sweep.Observer.
func (o *OccupancyObserver) Begin(v *sweep.StreamView) error {
	o.points = make([]SweepPoint, len(v.Grid))
	return nil
}

// ObservePeriod implements sweep.Observer. It runs concurrently for
// different periods; each call only writes its own grid slot.
func (o *OccupancyObserver) ObservePeriod(p *sweep.Period) error {
	sample, err := dist.NewSampleFromChunks(p.OccupancyCount, p.OccupancyChunks)
	if err != nil {
		return err
	}
	pt := SweepPoint{Delta: p.Delta, Trips: sample.N(), Scores: make([]float64, len(o.sels))}
	for si, sel := range o.sels {
		pt.Scores[si] = sel.Score(sample)
	}
	o.points[p.Index] = pt
	return nil
}

// Points returns the scored curve in grid order. Valid after sweep.Run
// returns without error.
func (o *OccupancyObserver) Points() []SweepPoint { return o.points }

// Sweep scores every candidate period in grid with every selector in
// opt.Selectors. Points are returned in grid order.
//
// Sweep is a thin wrapper over the unified sweep engine: one
// OccupancyObserver registered with sweep.Run. The engine sorts and
// canonicalises the event buffer once, builds each period's CSR arena
// exactly once, schedules (period, destination-block) work items on one
// shared worker pool, and keeps at most opt.MaxInFlight periods
// resident — each period is built, swept, scored and freed before the
// grid moves on.
func Sweep(ctx context.Context, s *linkstream.Stream, grid []int64, opt Options) ([]SweepPoint, error) {
	if s.NumEvents() == 0 {
		return nil, ErrNoEvents
	}
	if len(grid) == 0 {
		return nil, errors.New("core: empty candidate grid")
	}
	for _, delta := range grid {
		if delta <= 0 {
			return nil, fmt.Errorf("core: non-positive aggregation period %d", delta)
		}
	}
	obs := NewOccupancyObserver(opt.selectors())
	if err := sweep.Run(ctx, s, grid, opt.engineOptions(), obs); err != nil {
		return nil, err
	}
	return obs.Points(), nil
}

// engineOptions translates the occupancy-method options into the sweep
// engine's.
func (o Options) engineOptions() sweep.Options {
	return sweep.Options{
		Directed:    o.Directed,
		Workers:     o.Workers,
		MaxInFlight: o.MaxInFlight,
	}
}

// Best returns the index of the point maximising selector selIdx.
// Ties are broken towards the smaller ∆ (the paper treats γ as an upper
// bound, so the conservative choice is the finer scale).
func Best(points []SweepPoint, selIdx int) int {
	best := -1
	for i, p := range points {
		if best < 0 || p.Scores[selIdx] > points[best].Scores[selIdx] {
			best = i
		}
	}
	return best
}

// SaturationScale runs the occupancy method end to end: sweep the ∆
// grid, optionally refine around the maximum, and return γ together
// with the full score curve. It is SaturationScaleWith driven by plain
// engine passes over the stream; the staged refinement means every
// distinct ∆ is swept at most once.
func SaturationScale(ctx context.Context, s *linkstream.Stream, opt Options) (Result, error) {
	if s.NumEvents() == 0 {
		return Result{}, ErrNoEvents
	}
	if len(opt.Grid) == 0 {
		opt.Grid = DefaultGrid(s, DefaultGridPoints)
	}
	return SaturationScaleWith(ctx, opt, func(grid []int64, obs sweep.Observer) error {
		return sweep.Run(ctx, s, grid, opt.engineOptions(), obs)
	})
}

// mergePoints merges two sweeps, dropping duplicate deltas and keeping
// the result sorted by Delta.
func mergePoints(a, b []SweepPoint) []SweepPoint {
	out := make([]SweepPoint, 0, len(a)+len(b))
	seen := make(map[int64]bool, len(a)+len(b))
	add := func(ps []SweepPoint) {
		for _, p := range ps {
			if !seen[p.Delta] {
				seen[p.Delta] = true
				out = append(out, p)
			}
		}
	}
	add(a)
	add(b)
	sort.Slice(out, func(i, j int) bool { return out[i].Delta < out[j].Delta })
	return out
}
