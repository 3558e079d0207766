package repro

// This file is the deterministic half of distributed execution: a
// Plan's (window, ∆) job space partitioned into per-shard PlanSpecs
// (PartitionSpec), partial reports checked for shape (ValidatePartial)
// and folded back — in lane order — into the Report a single-process
// run of the same spec produces, byte for byte (DistributedRun).
//
// The fold is exact, not approximate, because every per-∆ observer in
// the engine scores each candidate period independently: observers
// size their curve to the grid and write points[p.Index], so the curve
// a chunk shard computes is literally a contiguous subslice of the
// curve the whole grid would have produced. Concatenating chunk curves
// in lane order therefore reproduces the grid-order slice exactly —
// for any chunking, including one chunk per ∆. The only whole-series
// quantities are the occupancy search's refinement (the coordinator
// runs the same round driver as a local run, dispatching the
// refinement round's fresh ∆s as an occupancy-only shard) and the
// snapshot-series stability scores (recomputed over the merged values
// with the same metrics.Stability a local run uses).
//
// Fault handling — retries, timeouts, re-dispatch to surviving workers
// — lives in internal/distrib; everything here is pure partition and
// fold, so the bit-exactness argument never depends on scheduling.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/sweep"
)

// GlobalScope is the ShardPlan.Scope value of whole-stream shards.
const GlobalScope = -1

// ShardPlan is one dispatchable shard of a distributed run: a
// contiguous chunk of one scope's candidate grid, expressed as a
// self-contained PlanSpec a worker can execute with the ordinary
// plan/run lifecycle.
type ShardPlan struct {
	// Lane is the shard's position in the deterministic fold order.
	// Round-0 lanes enumerate scopes (global first, then windows in
	// spec order) and chunks within each scope in grid order;
	// refinement shards take fresh lanes as the searches stage them.
	Lane int
	// Scope is GlobalScope or the index of the spec window the shard
	// belongs to.
	Scope int
	// Start, End are the window bounds of window-scope shards.
	Start, End int64
	// Deltas is the chunk of candidate periods the shard scores, in
	// grid order — the contract ValidatePartial checks partials against.
	Deltas []int64
	// Spec is the shard's executable plan spec: the parent spec with
	// the chunk as its explicit grid, refinement off (the coordinator
	// owns the search), and — for window shards — exactly one window
	// with WindowsOnly set. The stream reference
	// carries the coordinator-observed header hash, so a worker whose
	// file diverged refuses the shard instead of corrupting the fold.
	Spec *PlanSpec
}

// ShardRunner executes one shard and returns its partial report — the
// pluggable transport of DistributedRun. The in-process runner is
// shard.Spec.NewPlan followed by Plan.Run; internal/distrib's runner
// POSTs the shard to a tsserve worker and decodes the partial
// envelope, retrying and re-dispatching on faults. A runner must
// return a partial that passes ValidatePartial; transient failures are
// its own to absorb.
type ShardRunner func(ctx context.Context, shard ShardPlan) (*Report, error)

// specMetrics resolves a spec's metric set (nil means occupancy, like
// WithMetrics' default).
func specMetrics(spec *PlanSpec) ([]Metric, error) {
	if len(spec.Metrics) == 0 {
		return []Metric{MetricOccupancy}, nil
	}
	return ParseMetrics(strings.Join(spec.Metrics, ","))
}

// PartitionSpec splits the spec's (window, ∆) job space into round-0
// shards: every scope's candidate grid — the global grid and each
// window's, resolved exactly as a local run resolves them — cut into
// at most shards contiguous chunks (sweep.PartitionGrid). The spec's
// stream must be reachable from this process: the partitioner opens
// the plan once to resolve derived grids and to pin the columnar
// header hash into every shard's stream ref. Adaptive specs cannot be
// sharded (the segmentation chooses its own windows at run time).
func PartitionSpec(spec *PlanSpec, shards int) ([]ShardPlan, error) {
	round0, _, err := partition(spec, shards)
	return round0, err
}

// partition is PartitionSpec returning, besides the round-0 shards,
// the scopes DistributedRun drives, each holding its own chunk shards.
func partition(spec *PlanSpec, shards int) ([]ShardPlan, []*scopeRun, error) {
	if spec == nil {
		return nil, nil, errors.New("repro: nil plan spec")
	}
	if spec.Adaptive != nil {
		return nil, nil, errors.New("repro: adaptive plans cannot be sharded: the segmentation chooses its own windows at run time")
	}
	plan, err := spec.NewPlan()
	if err != nil {
		return nil, nil, err
	}
	defer plan.Close()

	base := *spec
	if ref, ok := plan.StreamRef(); ok {
		// Keep the submitter's path — workers resolve it under their own
		// stream root — but pin the hash and span this partitioner saw.
		r := *spec.Stream
		r.Hash = ref.Hash
		r.TimeMin, r.TimeMax, r.Events = ref.TimeMin, ref.TimeMax, ref.Events
		base.Stream = &r
	}
	scopes, err := plan.scopes()
	if err != nil {
		return nil, nil, err
	}
	var out []ShardPlan
	for _, sr := range scopes {
		for _, chunk := range sweep.PartitionGrid(sr.grid, shards) {
			sh := scopeShard(base, sr, chunk, len(out))
			sr.shards = append(sr.shards, sh)
			out = append(out, sh)
		}
	}
	return out, scopes, nil
}

// scopeShard shapes base into the shard scoring grid for one scope:
// grid becomes the global grid, or the grid of the scope's single
// window with WindowsOnly set, and refinement is off (the coordinator
// owns the search).
func scopeShard(base PlanSpec, sr *scopeRun, grid []int64, lane int) ShardPlan {
	base.GridPoints, base.MinDelta, base.Refine = 0, 0, 0
	base.Grid, base.Windows, base.WindowsOnly = grid, nil, false
	if sr.scope != GlobalScope {
		base.Grid = nil
		base.Windows = []Window{{Start: sr.start, End: sr.end, Grid: grid}}
		base.WindowsOnly = true
	}
	return ShardPlan{Lane: lane, Scope: sr.scope, Start: sr.start, End: sr.end, Deltas: grid, Spec: &base}
}

// partialCurves extracts the shard's scope curves from its partial.
func partialCurves(shard ShardPlan, rep *Report) Curves {
	if shard.Scope == GlobalScope {
		return rep.Global()
	}
	return rep.Window(0).Curves
}

// ValidatePartial checks a partial report against its shard's
// contract: the right scope shape (no windows for a global shard,
// exactly the shard's window otherwise), every requested curve
// present, and every curve's periods aligned one-to-one with the
// shard's Deltas. It is the coordinator's corruption detector — a
// partial that passes folds cleanly; one that fails is re-dispatched
// by the fault layer, never folded.
func ValidatePartial(shard ShardPlan, rep *Report) error {
	if rep == nil {
		return errors.New("repro: nil partial report")
	}
	ms, err := specMetrics(shard.Spec)
	if err != nil {
		return err
	}
	var cv Curves
	if shard.Scope == GlobalScope {
		if n := rep.NumWindows(); n != 0 {
			return fmt.Errorf("repro: partial for the global scope carries %d windows", n)
		}
		cv = rep.Global()
	} else {
		if n := rep.NumWindows(); n != 1 {
			return fmt.Errorf("repro: window partial carries %d windows, want exactly 1", n)
		}
		w := rep.Window(0)
		if w.Start != shard.Start || w.End != shard.End {
			return fmt.Errorf("repro: window partial covers [%d, %d), shard wants [%d, %d)", w.Start, w.End, shard.Start, shard.End)
		}
		if len(rep.Occupancy()) > 0 {
			return errors.New("repro: window partial carries global curves")
		}
		cv = w.Curves
	}

	check := func(metric string, n int, delta func(int) int64) error {
		if n != len(shard.Deltas) {
			return fmt.Errorf("repro: partial %s curve has %d points, shard wants %d", metric, n, len(shard.Deltas))
		}
		for i := range shard.Deltas {
			if d := delta(i); d != shard.Deltas[i] {
				return fmt.Errorf("repro: partial %s curve point %d scores ∆=%d, shard wants ∆=%d", metric, i, d, shard.Deltas[i])
			}
		}
		return nil
	}
	var snapshotWant []string
	for _, m := range ms {
		var err error
		switch m {
		case MetricOccupancy:
			err = check("occupancy", len(cv.Occupancy), func(i int) int64 { return cv.Occupancy[i].Delta })
		case MetricClassic:
			err = check("classic", len(cv.Classic), func(i int) int64 { return cv.Classic[i].Delta })
		case MetricDistance:
			err = check("distance", len(cv.Distance), func(i int) int64 { return cv.Distance[i].Delta })
		case MetricTransitionLoss:
			err = check("loss", len(cv.TransitionLoss), func(i int) int64 { return cv.TransitionLoss[i].Delta })
		case MetricElongation:
			err = check("elongation", len(cv.Elongation), func(i int) int64 { return cv.Elongation[i].Delta })
		default:
			snapshotWant = append(snapshotWant, m.String())
		}
		if err != nil {
			return err
		}
	}
	if len(cv.Snapshots) != len(snapshotWant) {
		return fmt.Errorf("repro: partial carries %d snapshot curves, shard wants %d", len(cv.Snapshots), len(snapshotWant))
	}
	for _, c := range cv.Snapshots {
		// Snapshot curves come back in enum order; the parsed metric list
		// preserves request order, which spec.Options normalises to enum
		// order through the metric bool set — so compare as sets.
		found := false
		for _, name := range snapshotWant {
			if c.Metric == name {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("repro: partial carries unrequested snapshot curve %q", c.Metric)
		}
		if err := check("snapshot "+c.Metric, len(c.Deltas), func(j int) int64 { return c.Deltas[j] }); err != nil {
			return err
		}
		for _, ser := range c.Series {
			if len(ser.Values) != len(shard.Deltas) {
				return fmt.Errorf("repro: partial snapshot %s series %q has %d values, shard wants %d", c.Metric, ser.Name, len(ser.Values), len(shard.Deltas))
			}
		}
	}
	return nil
}

// foldCurves concatenates per-chunk scope curves in lane order —
// exactly the grid-order slice one pass over the whole scope grid
// produces — and recomputes the snapshot stability scores, the one
// whole-series quantity, over the merged values.
func foldCurves(parts []Curves) Curves {
	var out Curves
	for _, cv := range parts {
		out.Occupancy = append(out.Occupancy, cv.Occupancy...)
		out.Classic = append(out.Classic, cv.Classic...)
		out.Distance = append(out.Distance, cv.Distance...)
		out.TransitionLoss = append(out.TransitionLoss, cv.TransitionLoss...)
		out.Elongation = append(out.Elongation, cv.Elongation...)
	}
	if len(parts) == 0 || len(parts[0].Snapshots) == 0 {
		return out
	}
	for mi := range parts[0].Snapshots {
		merged := MetricCurve{Metric: parts[0].Snapshots[mi].Metric}
		for _, ser := range parts[0].Snapshots[mi].Series {
			merged.Series = append(merged.Series, MetricSeries{Name: ser.Name})
		}
		for _, cv := range parts {
			c := cv.Snapshots[mi]
			merged.Deltas = append(merged.Deltas, c.Deltas...)
			for si := range c.Series {
				merged.Series[si].Values = append(merged.Series[si].Values, c.Series[si].Values...)
			}
		}
		for si := range merged.Series {
			merged.Series[si].Stability = metrics.Stability(merged.Series[si].Values)
		}
		out.Snapshots = append(out.Snapshots, merged)
	}
	return out
}

// DistributedRun executes the spec's job space through a ShardRunner
// and folds the partials into the Report a local Plan.Run of the same
// spec returns — byte-identical under the wire encoding, for any shard
// count and any runner scheduling. Every scope runs the round driver a
// local run uses in its own goroutine, with a shard-dispatching round
// executor: round 0 dispatches the scope's chunks concurrently, and
// each refinement round its fresh ∆s as one occupancy-only shard. The
// returned report carries zero EngineStats (instrumentation never
// travels with results).
func DistributedRun(ctx context.Context, spec *PlanSpec, shards int, run ShardRunner) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if run == nil {
		return nil, errors.New("repro: DistributedRun needs a shard runner")
	}
	round0, scopes, err := partition(spec, shards)
	if err != nil {
		return nil, err
	}

	var laneSeq atomic.Int64
	laneSeq.Store(int64(len(round0)))
	exec := shardRound(run, &laneSeq)
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	errs := make([]error, len(scopes))
	var wg sync.WaitGroup
	for i, sr := range scopes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := driveScopes(runCtx, []*scopeRun{sr}, exec); err != nil {
				errs[i] = err
				cancel() // abort sibling scopes
			}
		}()
	}
	wg.Wait()

	// Report the failing scope's error, not a sibling's cancellation.
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return nil, err
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return scopeReport(scopes), nil
}

// shardRound is DistributedRun's round executor. Round 0 runs each
// scope's chunk shards concurrently and folds their partials in lane
// order (foldCurves); a refinement round runs the scope's fresh ∆s as
// one occupancy-only shard on a fresh lane.
func shardRound(run ShardRunner, laneSeq *atomic.Int64) roundExecutor {
	return func(ctx context.Context, round int, scopes []*scopeRun, grids [][]int64) ([]Curves, error) {
		out := make([]Curves, len(scopes))
		for i, sr := range scopes {
			if round > 0 {
				base := *sr.shards[0].Spec
				base.Metrics = []string{MetricOccupancy.String()}
				sh := scopeShard(base, sr, grids[i], int(laneSeq.Add(1))-1)
				cv, err := runShard(ctx, run, sh)
				if err != nil {
					return nil, fmt.Errorf("refinement shard lane %d: %w", sh.Lane, err)
				}
				out[i] = cv
				continue
			}
			parts := make([]Curves, len(sr.shards))
			errs := make([]error, len(sr.shards))
			var wg sync.WaitGroup
			for j, sh := range sr.shards {
				wg.Add(1)
				go func() {
					defer wg.Done()
					parts[j], errs[j] = runShard(ctx, run, sh)
				}()
			}
			wg.Wait()
			for j, err := range errs {
				if err != nil {
					return nil, fmt.Errorf("shard lane %d: %w", sr.shards[j].Lane, err)
				}
			}
			out[i] = foldCurves(parts)
		}
		return out, nil
	}
}

// runShard runs one shard and returns its scope curves once the
// partial passes ValidatePartial.
func runShard(ctx context.Context, run ShardRunner, sh ShardPlan) (Curves, error) {
	rep, err := run(ctx, sh)
	if err == nil {
		err = ValidatePartial(sh, rep)
	}
	if err != nil {
		return Curves{}, err
	}
	return partialCurves(sh, rep), nil
}

// RunShardLocal executes one shard in-process — the single-process
// fallback of the coordinator (no workers registered, or a shard out
// of retries) and the reference runner of the parity tests.
func RunShardLocal(ctx context.Context, shard ShardPlan) (*Report, error) {
	plan, err := shard.Spec.NewPlan()
	if err != nil {
		return nil, err
	}
	defer plan.Close()
	return plan.Run(ctx)
}
