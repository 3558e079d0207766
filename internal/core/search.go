package core

// This file implements the engine-backed search entry points of the
// occupancy method: SaturationScale's sweep-then-refine loop factored
// into a resumable state machine (ScaleSearch) whose engine passes are
// supplied by the caller. A single search is SaturationScaleWith; many
// concurrent searches batch the requests of each round into one fused
// engine pass (NextGrid/AbsorbPoints), so every scope's grid flows
// through one engine pipeline under the shared MaxInFlight bound.
// Batched searches whose windows and candidate periods coincide are
// deduplicated by the engine itself: one (window, ∆) CSR build serves
// every search that requested it, bit-identically.

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/dist"
	"repro/internal/sweep"
)

// SweepRunner executes one engine pass: score every period of grid with
// obs (registering it with sweep.Run, sweep.RunWindowed, or any other
// scheduler). It is the pluggable sweep of SaturationScaleWith.
type SweepRunner func(grid []int64, obs sweep.Observer) error

// ScaleSearch is the occupancy method as a resumable search: it emits
// sweep requests (a candidate grid plus an observer to score it with)
// and absorbs the scored points until γ is determined, letting a
// caller interleave or batch the engine passes of many searches.
//
// Protocol: call Next for the pending request; run any engine pass that
// registers the returned observer over the returned grid; call Absorb.
// Repeat until Next reports ok == false, then read Result. A search
// issues at most two requests: the candidate grid, then — when
// Options.Refine asks for it — one refinement grid of Refine+2
// geometric points between the neighbours of the best ∆. Refinement
// grids are deduplicated against every ∆ already scored, so each
// distinct ∆ is swept exactly once.
type ScaleSearch struct {
	opt       Options
	sels      []dist.Selector
	seen      map[int64]bool
	points    []SweepPoint
	cur       *OccupancyObserver
	curGrid   []int64
	requested bool // a NextGrid/Next request is outstanding
	refined   bool
	done      bool
}

// NewScaleSearch validates opt and stages the initial sweep request.
// Unlike SaturationScale, opt.Grid must be set explicitly — a search
// has no stream to derive a default grid from.
func NewScaleSearch(opt Options) (*ScaleSearch, error) {
	if len(opt.Grid) == 0 {
		return nil, errors.New("core: ScaleSearch needs an explicit candidate grid")
	}
	for _, delta := range opt.Grid {
		if delta <= 0 {
			return nil, fmt.Errorf("core: non-positive aggregation period %d", delta)
		}
	}
	sc := &ScaleSearch{opt: opt, sels: opt.selectors(), seen: make(map[int64]bool, len(opt.Grid)), curGrid: opt.Grid}
	for _, d := range opt.Grid {
		sc.seen[d] = true
	}
	return sc, nil
}

// Next returns the pending sweep request: the grid to sweep and the
// observer to register for it. ok is false when the search is complete
// (or a previous request has not been absorbed yet).
func (sc *ScaleSearch) Next() (grid []int64, obs sweep.Observer, ok bool) {
	if sc.done || sc.requested || sc.curGrid == nil {
		return nil, nil, false
	}
	sc.cur = NewOccupancyObserver(sc.sels)
	sc.requested = true
	return sc.curGrid, sc.cur, true
}

// NextGrid is the observer-less half of the request protocol, for
// callers whose engine passes run elsewhere (a shard coordinator
// dispatching grids to workers): it returns the pending candidate grid
// without allocating an observer. Fold the scored points back with
// AbsorbPoints. ok is false when the search is complete or a previous
// request has not been absorbed yet.
func (sc *ScaleSearch) NextGrid() (grid []int64, ok bool) {
	if sc.done || sc.requested || sc.curGrid == nil {
		return nil, false
	}
	sc.requested = true
	return sc.curGrid, true
}

// Absorb folds the scored points of the last Next request into the
// search and stages the refinement round when opt.Refine asks for one
// and the maximum is not yet pinned to grid resolution.
func (sc *ScaleSearch) Absorb() error {
	if sc.cur == nil {
		return errors.New("core: Absorb without a pending sweep request")
	}
	pts := sc.cur.Points()
	sc.cur = nil
	return sc.absorb(pts)
}

// AbsorbPoints folds externally scored points into the search — the
// partial-fold entry point matching NextGrid. pts must hold one scored
// point per period of the last NextGrid grid, in grid order (exactly
// what OccupancyObserver.Points returns for that grid), so a
// coordinator folding per-shard partials reproduces Absorb bit for
// bit.
func (sc *ScaleSearch) AbsorbPoints(pts []SweepPoint) error {
	if !sc.requested {
		return errors.New("core: AbsorbPoints without a pending sweep request")
	}
	if sc.cur != nil {
		return errors.New("core: AbsorbPoints on an observer-backed request; call Absorb")
	}
	if len(pts) != len(sc.curGrid) {
		return fmt.Errorf("core: AbsorbPoints: %d points for a %d-period grid", len(pts), len(sc.curGrid))
	}
	for i, p := range pts {
		if p.Delta != sc.curGrid[i] {
			return fmt.Errorf("core: AbsorbPoints: point %d scores ∆=%d, grid wants ∆=%d", i, p.Delta, sc.curGrid[i])
		}
	}
	return sc.absorb(pts)
}

// absorb is the shared fold: merge the scored points and stage the
// refinement grid or finish.
func (sc *ScaleSearch) absorb(pts []SweepPoint) error {
	sc.curGrid, sc.requested = nil, false
	if sc.points == nil {
		sc.points = pts
	} else {
		sc.points = mergePoints(sc.points, pts)
	}
	if !sc.refined {
		sc.refined = true
		if sc.opt.Refine > 0 && len(sc.points) > 1 {
			best := Best(sc.points, 0)
			lo := sc.points[max(0, best-1)].Delta
			hi := sc.points[min(len(sc.points)-1, best+1)].Delta
			if hi > lo+1 {
				var fresh []int64
				for _, d := range LogGrid(lo, hi, sc.opt.Refine+2) {
					if !sc.seen[d] {
						sc.seen[d] = true
						fresh = append(fresh, d)
					}
				}
				if len(fresh) > 0 {
					sc.curGrid = fresh
					return nil
				}
			}
		}
	}
	sc.done = true
	return nil
}

// Done reports whether the search has converged.
func (sc *ScaleSearch) Done() bool { return sc.done }

// Result returns γ and the full score curve. It errors until the
// search is complete.
func (sc *ScaleSearch) Result() (Result, error) {
	if !sc.done {
		return Result{}, errors.New("core: scale search has pending sweep requests")
	}
	best := Best(sc.points, 0)
	return Result{
		Gamma:    sc.points[best].Delta,
		Score:    sc.points[best].Scores[0],
		Selector: sc.sels[0].Name(),
		Points:   sc.points,
	}, nil
}

// SaturationScaleWith runs the occupancy method's sweep-then-refine
// search through a caller-supplied engine pass: every grid the search
// stages is handed to run together with the observer that scores it.
// SaturationScale is SaturationScaleWith over a plain sweep.Run;
// callers fusing several analyses into shared engine passes drive the
// ScaleSearch protocol directly and batch the grids of concurrent
// searches into single windowed engine passes.
func SaturationScaleWith(ctx context.Context, opt Options, run SweepRunner) (Result, error) {
	sc, err := NewScaleSearch(opt)
	if err != nil {
		return Result{}, err
	}
	for {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		grid, obs, ok := sc.Next()
		if !ok {
			break
		}
		if err := run(grid, obs); err != nil {
			return Result{}, err
		}
		if err := sc.Absorb(); err != nil {
			return Result{}, err
		}
	}
	return sc.Result()
}
