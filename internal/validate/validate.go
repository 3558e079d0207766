// Package validate implements the paper's Section 8 loss measures, used
// to check that the saturation scale returned by the occupancy method
// indeed marks where aggregation starts altering propagation:
//
//   - the proportion of shortest transitions of the original link stream
//     that collapse inside one aggregation window (Figure 8 left), and
//   - the mean elongation factor of the minimal trips of the aggregated
//     series with respect to the original stream (Figure 8 right).
//
// Both measures are sweep-engine observers built on the engine's
// streaming trip pipeline: the raw stream's minimal trips arrive as
// per-destination runs (shared between the two observers, never
// materialised as one flat slice), the transition-loss observer keeps
// only the two-hop spans, and the elongation observer encodes each run
// into a delta-encoded pair-span arena (spanarena.go) that can spill to
// disk. The elongation observer's per-period scan is sharded across the
// engine's worker pool as per-block partial sums combined in block
// order, so its result is bit-for-bit identical for any worker count —
// and to the retained seed implementations (*CurveReference), which run
// one dedicated temporal pass per metric.
package validate

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/linkstream"
	"repro/internal/sweep"
	"repro/internal/temporal"
)

// Options configures the validation sweeps.
type Options struct {
	Directed bool
	Workers  int
	// MaxInFlight bounds the periods the sweep engine keeps resident;
	// <= 0 selects the engine default.
	MaxInFlight int
	// SpillBytes caps the resident bytes of the elongation observer's
	// delta-encoded pair-span arena; beyond the cap finished regions
	// spill to an unlinked temp file re-read during scoring. <= 0 keeps
	// the whole arena in RAM. The curve is bit-identical either way.
	SpillBytes int64
}

func (o Options) engine() sweep.Options {
	return sweep.Options{Directed: o.Directed, Workers: o.Workers, MaxInFlight: o.MaxInFlight}
}

// LossPoint is the Figure 8 (left) value at one aggregation period.
type LossPoint struct {
	Delta int64 `json:"delta"`
	// Lost is the proportion of the stream's shortest transitions whose
	// two hops fall in the same aggregation window — exactly the
	// transitions that no longer exist in the aggregated series.
	Lost float64 `json:"lost"`
	// Total is the number of shortest transitions of the stream.
	Total int `json:"total"`
}

// TransitionLossObserver computes the Figure 8 (left) curve from the
// raw stream's shortest transitions. It consumes the engine's streaming
// trip runs, keeping only the two-hop spans, so the full stream trip
// population is never resident; each period is then a linear scan over
// the transition intervals.
type TransitionLossObserver struct {
	t0     int64
	spans  []tripSpan
	points []LossPoint
}

// NewTransitionLossObserver returns an empty transition-loss observer.
func NewTransitionLossObserver() *TransitionLossObserver { return &TransitionLossObserver{} }

// Needs implements sweep.Observer.
func (o *TransitionLossObserver) Needs() sweep.Needs { return sweep.Needs{StreamTripRuns: true} }

// Begin implements sweep.Observer.
func (o *TransitionLossObserver) Begin(v *sweep.StreamView) error {
	o.t0 = v.T0
	o.spans = o.spans[:0]
	o.points = make([]LossPoint, len(v.Grid))
	return nil
}

// ObserveTripRun implements sweep.TripRunObserver: shortest transitions
// are the minimal trips with exactly two hops (Definition 6), collected
// run by run in destination-major order.
func (o *TransitionLossObserver) ObserveTripRun(dest int32, run []temporal.Trip) error {
	for _, tr := range run {
		if tr.Hops == 2 {
			o.spans = append(o.spans, tripSpan{dep: tr.Dep, arr: tr.Arr})
		}
	}
	return nil
}

// FinishTripRuns implements sweep.TripRunObserver.
func (o *TransitionLossObserver) FinishTripRuns() error { return nil }

// ObservePeriod implements sweep.Observer.
func (o *TransitionLossObserver) ObservePeriod(p *sweep.Period) error {
	o.points[p.Index] = lossPoint(o.spans, o.t0, p.Delta)
	return nil
}

// lossPoint scores one period's transition loss over the stream's
// shortest-transition spans.
func lossPoint(spans []tripSpan, t0, delta int64) LossPoint {
	lost := 0
	for _, tr := range spans {
		if (tr.dep-t0)/delta == (tr.arr-t0)/delta {
			lost++
		}
	}
	pt := LossPoint{Delta: delta, Total: len(spans)}
	if len(spans) > 0 {
		pt.Lost = float64(lost) / float64(len(spans))
	}
	return pt
}

// Points returns the loss curve in grid order. Valid after sweep.Run
// returns without error.
func (o *TransitionLossObserver) Points() []LossPoint { return o.points }

// TransitionLossCurve computes the proportion of lost shortest
// transitions for every period in grid, as one engine run with a
// TransitionLossObserver.
func TransitionLossCurve(ctx context.Context, s *linkstream.Stream, grid []int64, opt Options) ([]LossPoint, error) {
	if s.NumEvents() == 0 {
		return nil, errors.New("validate: stream has no events")
	}
	if len(grid) == 0 {
		return nil, errors.New("validate: empty grid")
	}
	obs := NewTransitionLossObserver()
	if err := sweep.Run(ctx, s, grid, opt.engine(), obs); err != nil {
		return nil, err
	}
	return obs.Points(), nil
}

// tripSpan is one minimal trip interval of the original stream.
type tripSpan struct {
	dep, arr int64
}

// pairIndex maps an ordered pair (u, v) to the minimal trips of the
// stream between u and v, sorted by strictly increasing departure (and,
// by non-nesting, strictly increasing arrival). For node counts up to
// maxFlatPairNodes the spans live in one flat arena addressed by a
// dense n×n offset table, laid out destination-major (pair (u, v) at
// slot v·n+u) — ElongationCurveReference queries the index once per
// series trip, and an array lookup beats a hash probe by an order of
// magnitude there. Larger graphs fall back to a map. The streaming
// observer's span arena is checked against this index.
type pairIndex struct {
	n       int32
	offsets []int32    // len n*n+1 in flat mode; nil in map mode
	spans   []tripSpan // flat arena, grouped by pair, dep-ascending
	byPair  map[uint64][]tripSpan
}

// maxFlatPairNodes bounds the dense offset table to ~16 MiB.
const maxFlatPairNodes = 2048

func pairKey(u, v int32) uint64 { return uint64(uint32(u))<<32 | uint64(uint32(v)) }

// guardSorted verifies the per-pair dep-ascending invariant of the flat
// arena (one linear pass) and restores it if an enumeration order
// change ever violates it.
func (idx *pairIndex) guardSorted() {
	n := int(idx.n)
	for p := 0; p < n*n; p++ {
		lo, hi := idx.offsets[p], idx.offsets[p+1]
		for i := lo + 1; i < hi; i++ {
			if idx.spans[i].dep < idx.spans[i-1].dep {
				sp := idx.spans[lo:hi]
				sort.Slice(sp, func(i, j int) bool { return sp[i].dep < sp[j].dep })
				break
			}
		}
	}
}

func buildPairIndex(n int, trips []temporal.Trip) *pairIndex {
	idx := &pairIndex{n: int32(n)}
	if n > maxFlatPairNodes {
		idx.byPair = make(map[uint64][]tripSpan)
		for _, tr := range trips {
			k := pairKey(tr.U, tr.V)
			idx.byPair[k] = append(idx.byPair[k], tripSpan{dep: tr.Dep, arr: tr.Arr})
		}
		for k := range idx.byPair {
			sp := idx.byPair[k]
			sort.Slice(sp, func(i, j int) bool { return sp[i].dep < sp[j].dep })
		}
		return idx
	}
	// Flat mode: counting pass, prefix sum, then a backward fill. The
	// trip enumeration emits each pair's trips in strictly decreasing
	// departure order (backward sweep, destination-major), so filling
	// each pair's range back to front yields dep-ascending spans without
	// any per-pair sort.
	offsets := make([]int32, n*n+1)
	for _, tr := range trips {
		offsets[int(tr.V)*n+int(tr.U)+1]++
	}
	for i := 1; i <= n*n; i++ {
		offsets[i] += offsets[i-1]
	}
	spans := make([]tripSpan, len(trips))
	cursor := make([]int32, n*n)
	for _, tr := range trips {
		p := int(tr.V)*n + int(tr.U)
		cursor[p]++
		spans[int(offsets[p+1])-int(cursor[p])] = tripSpan{dep: tr.Dep, arr: tr.Arr}
	}
	idx.offsets, idx.spans = offsets, spans
	idx.guardSorted()
	return idx
}

// pair returns the dep-ascending spans of the ordered pair (u, v).
func (idx *pairIndex) pair(u, v int32) []tripSpan {
	if idx.offsets != nil {
		if u < 0 || u >= idx.n || v < 0 || v >= idx.n {
			return nil
		}
		p := int(v)*int(idx.n) + int(u)
		return idx.spans[idx.offsets[p]:idx.offsets[p+1]]
	}
	return idx.byPair[pairKey(u, v)]
}

// minDurationWithin returns the smallest duration (arr - dep) among the
// pair's stream trips fully contained in [a, b], and whether one exists.
// Because any trip contains a minimal trip within its own interval,
// searching minimal trips only is sufficient.
func (idx *pairIndex) minDurationWithin(u, v int32, a, b int64) (int64, bool) {
	return minDurationIn(idx.pair(u, v), a, b)
}

// ElongationPoint is the Figure 8 (right) value at one period.
type ElongationPoint struct {
	Delta int64 `json:"delta"`
	// MeanElongation is the mean, over the minimal trips of G∆ spanning
	// at least two windows, of (tv - tu + 1)·∆ / timeL (Definition 8).
	MeanElongation float64 `json:"mean_elongation"`
	// Trips is the number of trips entering the mean.
	Trips int `json:"trips"`
	// Unmatched counts trips for which no stream trip was found inside
	// the window interval; it is always 0 for consistent inputs and is
	// reported for failure-injection tests.
	Unmatched int `json:"unmatched,omitempty"`
}

// ElongationObserver computes the Figure 8 (right) curve. The pair
// spans of the raw stream's minimal trips are built incrementally from
// the engine's streaming trip runs (never holding the flat trip slice)
// into a delta-encoded destination-major arena — 6.1 B per span on the
// paper-batch benchmark stream instead of the flat index's 16, with
// only one int64 offset per node — that can spill finished regions to
// disk beyond SpillBytes, so Section 8 validation runs on streams whose
// span population exceeds RAM. Each period's scan over the minimal
// trips of G∆ is sharded across the engine's worker pool: every
// destination block is scored on the worker that swept it (its
// destinations' regions decoded into pooled scratch, re-read from the
// spill shelf if needed, each trip's source found in O(1) through the
// scratch's slot table and its window by a per-source cursor), into
// per-lane partial sums that ObservePeriod folds in lane order —
// bit-for-bit deterministic for any worker count, any spill cap, and
// identical to ElongationCurveReference.
type ElongationObserver struct {
	// SpillBytes caps the arena's resident bytes (Options.SpillBytes);
	// set before the run begins. <= 0 keeps everything in RAM.
	SpillBytes int64

	t0        int64
	arena     *spanArena
	points    []ElongationPoint
	remaining atomic.Int64
	scratch   sync.Pool // of *destSpans
}

// NewElongationObserver returns an empty elongation observer.
func NewElongationObserver() *ElongationObserver { return &ElongationObserver{} }

// Needs implements sweep.Observer: streaming stream-trip runs for the
// pair-span arena, sharded per-period trip scoring for the scan.
func (o *ElongationObserver) Needs() sweep.Needs {
	return sweep.Needs{StreamTripRuns: true, TripShards: true}
}

// Begin implements sweep.Observer.
func (o *ElongationObserver) Begin(v *sweep.StreamView) error {
	if o.arena != nil {
		o.arena.release() // a previous aborted run's spill shelf
	}
	o.t0 = v.T0
	o.arena = newSpanArena(v.N, o.SpillBytes)
	o.points = make([]ElongationPoint, len(v.Grid))
	o.remaining.Store(int64(len(v.Grid)))
	return nil
}

// ObserveTripRun implements sweep.TripRunObserver: each destination's
// run is encoded into the arena the moment it arrives, spilling if the
// resident encoding passed the cap.
func (o *ElongationObserver) ObserveTripRun(dest int32, run []temporal.Trip) error {
	return o.arena.addRun(dest, run)
}

// FinishTripRuns implements sweep.TripRunObserver.
func (o *ElongationObserver) FinishTripRuns() error {
	o.arena.finish()
	return nil
}

// elongPartial is one destination lane's share of a period's elongation
// scan.
type elongPartial struct {
	sum       float64
	trips     int
	unmatched int
}

// elongShard is the per-period state of the sharded elongation scan:
// one partial per destination lane, written only by the worker that
// sweeps the lane's block.
type elongShard struct {
	o        *ElongationObserver
	delta    int64
	lanes    int // lanes per block of the run's blocked sweep
	partials []elongPartial
}

// NewTripShard implements sweep.ShardedTripObserver.
func (o *ElongationObserver) NewTripShard(delta int64, blocks, lanesPerBlock int) sweep.TripShard {
	return &elongShard{o: o, delta: delta, lanes: lanesPerBlock, partials: make([]elongPartial, blocks*lanesPerBlock)}
}

// ObserveTripBlock scores one destination block of the period's minimal
// trips against the stream pair-span arena, accumulating per-lane
// partials. Each lane holds one destination's trips, so its arena
// region is decoded once (into pooled scratch, off the spill shelf if
// it was flushed) and queried for every trip of the lane.
func (s *elongShard) ObserveTripBlock(block int, lanes [][]temporal.Trip) error {
	ds, _ := s.o.scratch.Get().(*destSpans)
	if ds == nil {
		ds = &destSpans{}
	}
	defer s.o.scratch.Put(ds)
	for l, lane := range lanes {
		if len(lane) == 0 {
			continue
		}
		if err := s.o.arena.decodeDest(int32(block*s.lanes+l), ds); err != nil {
			return err
		}
		pa := &s.partials[block*s.lanes+l]
		for _, tr := range lane {
			if tr.Dep == tr.Arr {
				continue // Definition 8 requires tu != tv
			}
			// Definition 8 confines the stream trip to the closed real
			// interval spanned by the trip's windows; in discrete time
			// the last instant of window arr is the instant before the
			// next window starts (an event at the boundary already
			// belongs to the next window).
			a := s.o.t0 + tr.Dep*s.delta
			b := s.o.t0 + (tr.Arr+1)*s.delta - 1
			durL, ok := ds.minDurationWithin(tr.U, a, b)
			if !ok || durL <= 0 {
				// Cannot happen for trips spanning >= 2 windows (the
				// series trip implies a stream trip in the interval and
				// minimality excludes instantaneous ones), but guard
				// against inconsistent inputs rather than divide by 0.
				pa.unmatched++
				continue
			}
			pa.sum += float64(tr.Arr-tr.Dep+1) * float64(s.delta) / float64(durL)
			pa.trips++
		}
	}
	return nil
}

// ObservePeriod implements sweep.Observer: it folds the shard's
// per-lane partial sums in lane (= destination) order, which is exactly
// the floating-point summation order of a sequential destination-major
// scan folding per-destination subtotals — so the mean matches
// ElongationCurveReference bit for bit regardless of how blocks were
// scheduled.
func (o *ElongationObserver) ObservePeriod(p *sweep.Period) error {
	sh := p.Shard.(*elongShard)
	pt := ElongationPoint{Delta: p.Delta}
	sum := 0.0
	for i := range sh.partials {
		pa := &sh.partials[i]
		pt.Unmatched += pa.unmatched
		if pa.trips > 0 {
			sum += pa.sum
			pt.Trips += pa.trips
		}
	}
	if pt.Trips > 0 {
		pt.MeanElongation = sum / float64(pt.Trips)
	}
	o.points[p.Index] = pt
	// Every period's blocks are decoded before its ObservePeriod runs,
	// so once the last period is observed no decode can follow: close
	// the spill shelf (if any) right away instead of waiting for GC.
	if o.remaining.Add(-1) == 0 {
		o.arena.release()
	}
	return nil
}

// Points returns the elongation curve in grid order. Valid after
// sweep.Run returns without error.
func (o *ElongationObserver) Points() []ElongationPoint { return o.points }

// ElongationCurve computes the mean elongation factor of the minimal
// trips of G∆ for every period in grid, as one engine run with an
// ElongationObserver.
func ElongationCurve(ctx context.Context, s *linkstream.Stream, grid []int64, opt Options) ([]ElongationPoint, error) {
	if s.NumEvents() == 0 {
		return nil, errors.New("validate: stream has no events")
	}
	if len(grid) == 0 {
		return nil, errors.New("validate: empty grid")
	}
	obs := NewElongationObserver()
	obs.SpillBytes = opt.SpillBytes
	if err := sweep.Run(ctx, s, grid, opt.engine(), obs); err != nil {
		return nil, err
	}
	return obs.Points(), nil
}
