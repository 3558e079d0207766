package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/linkstream"
	"repro/internal/sweep"
	"repro/internal/temporal"
)

// perLayer declares the traced run's metrics. Every traced run prints
// all of them; a layer a workload does not exercise reads 0 (README.md
// lists which workload exercises which metric). hit_p50_ms, miss_p50_ms
// and error_rate sit here rather than among the end-to-end metrics
// because they are not defined on every workload (error_rate is also the
// result line's failed/attempted).
var perLayer = []struct{ name, unit string }{
	{"hit_p50_ms", "ms"},
	{"miss_p50_ms", "ms"},
	{"error_rate", "fraction"},

	{"ingest.open_ms", "ms"},
	{"ingest.inline_ms", "ms"},
	{"ingest.slice_ms", "ms"},
	{"ingest.skip_index_hits", "count"},

	{"engine.passes", "count"},
	{"engine.builds", "count"},
	{"engine.max_resident", "count"},
	{"engine.sort_skip_ratio", "ratio"},
	{"engine.arena_reuse_ratio", "ratio"},
	{"engine.prepare_ms", "ms"},
	{"engine.stream_trips_ms", "ms"},
	{"engine.period_ms", "ms"},
	{"engine.csr_build_ms", "ms"},
	{"engine.sweep_ms", "ms"},

	{"observers.occupancy_ms", "ms"},
	{"observers.classic_ms", "ms"},
	{"observers.loss_ms", "ms"},
	{"observers.elongation_ms", "ms"},
	{"observers.degree_ms", "ms"},
	{"observers.components_ms", "ms"},
	{"observers.weighted_ms", "ms"},

	{"plan.new_ms", "ms"},
	{"plan.between_passes_ms", "ms"},
	{"plan.report_ms", "ms"},

	{"serve.decode_ms", "ms"},
	{"serve.key_ms", "ms"},
	{"serve.encode_ms", "ms"},
	{"serve.submit_ms", "ms"},
	{"serve.wait_ms", "ms"},
	{"serve.handler_ms", "ms"},
	{"serve.http_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.coalesced_ratio", "ratio"},
	{"serve.queued_max", "count"},

	{"distrib.partition_ms", "ms"},
	{"distrib.shards", "count"},
	{"distrib.refine_shards", "count"},
	{"distrib.dispatch_ms", "ms"},
	{"distrib.worker_ms", "ms"},
	{"distrib.self_ms", "ms"},
	{"distrib.worker_skew", "ratio"},
	{"distrib.local_ratio", "ratio"},

	{"runtime.alloc_mb_per_job", "MB"},
	{"runtime.gc_cpu_frac", "fraction"},
	{"runtime.cpu_util", "fraction"},

	{"trace.overhead_frac", "fraction"},
}

// progressLog timestamps a plan's progress events (WithProgress). The
// engine serialises the callback; the mutex orders it with the reader.
type progressLog struct {
	mu  sync.Mutex
	evs []stampedEvent
}

type stampedEvent struct {
	at time.Time
	ev repro.ProgressEvent
}

func (l *progressLog) record(ev repro.ProgressEvent) {
	now := time.Now()
	l.mu.Lock()
	l.evs = append(l.evs, stampedEvent{now, ev})
	l.mu.Unlock()
}

func (l *progressLog) events() []stampedEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]stampedEvent(nil), l.evs...)
}

// passCounters are the deterministic engine counters of one pass, as
// its last progress event reports them.
type passCounters struct {
	builds, dedups, streamBuilds int64
	periods                      int
}

// engineSpans turns the progress events of one Plan.Run (called at
// runStart, returned at runEnd) into spans under parent:
//
//	engine.prepare       Run call → pass 0 planned
//	engine.stream_trips  pass 0 planned → its raw-stream trip enumeration
//	engine.period        gap between successive period events of a pass
//	plan.between_passes  last event of pass k → first event of pass k+1
//	plan.report          last event → Run returns
//
// It returns pass 0's counters and every ∆ the run scored.
func engineSpans(jt *jobTrace, parent int64, runStart, runEnd time.Time, evs []stampedEvent) (passCounters, []int64) {
	var pc passCounters
	var deltas []int64
	if len(evs) == 0 {
		return pc, nil
	}
	planned := time.Time{}
	for i, se := range evs {
		ev := se.ev
		if ev.Pass == 0 {
			pc = passCounters{ev.Builds, ev.Dedups, ev.StreamBuilds, ev.PeriodsDone}
		}
		switch ev.Stage {
		case repro.ProgressPlanned:
			if ev.Pass == 0 && planned.IsZero() {
				planned = se.at
				jt.add(parent, "engine.prepare", "", runStart, se.at)
			}
		case repro.ProgressStreamTrips:
			if ev.Pass == 0 && !planned.IsZero() {
				jt.add(parent, "engine.stream_trips", "", planned, se.at)
			}
		case repro.ProgressPeriod:
			deltas = append(deltas, ev.Delta)
			if i > 0 && evs[i-1].ev.Stage == repro.ProgressPeriod && evs[i-1].ev.Pass == ev.Pass {
				jt.add(parent, "engine.period", "", evs[i-1].at, se.at)
			}
		}
		if i > 0 && evs[i-1].ev.Pass != ev.Pass {
			jt.add(parent, "plan.between_passes", "", evs[i-1].at, se.at)
		}
	}
	jt.add(parent, "plan.report", "", evs[len(evs)-1].at, runEnd)
	return pc, deltas
}

// setEngineSpans fills the metrics engineSpans' spans feed.
func setEngineSpans(m metricSet, spans []span) {
	m.set("engine.prepare_ms", median(values(perJob(spans, "engine.prepare"))))
	m.set("engine.stream_trips_ms", median(values(perJob(spans, "engine.stream_trips"))))
	m.set("engine.period_ms", median(durations(spans, "engine.period")))
	m.set("plan.between_passes_ms", median(values(perJob(spans, "plan.between_passes"))))
	m.set("plan.report_ms", median(values(perJob(spans, "plan.report"))))
}

// setEngineStats fills the engine counters from per-job EngineStats.
func setEngineStats(m metricSet, stats []repro.EngineStats) {
	if len(stats) == 0 {
		return
	}
	var passes, builds, resident []float64
	var skips, allPasses, reused, handed int64
	for _, s := range stats {
		passes = append(passes, float64(s.Passes))
		builds = append(builds, float64(s.Builds))
		resident = append(resident, float64(s.MaxResident))
		skips += s.SortSkips
		allPasses += s.Passes
		reused += s.ArenaReused
		handed += s.ArenaHanded
	}
	m.set("engine.passes", median(passes))
	m.set("engine.builds", median(builds))
	m.set("engine.max_resident", median(resident))
	if allPasses > 0 {
		m.set("engine.sort_skip_ratio", float64(skips)/float64(allPasses))
	}
	if handed > 0 {
		m.set("engine.arena_reuse_ratio", float64(reused)/float64(handed))
	}
}

// sameCounters reports whether two EngineStats agree on every counter
// that does not depend on scheduling (max_resident and arena reuse do).
func sameCounters(a, b repro.EngineStats) bool {
	return a.Passes == b.Passes && a.Builds == b.Builds && a.Dedups == b.Dedups &&
		a.StreamBuilds == b.StreamBuilds && a.Periods == b.Periods && a.SortSkips == b.SortSkips
}

// scope is one (window, ∆ set) the engine swept: the whole stream when
// start >= end.
type scope struct {
	start, end int64
	deltas     []int64
}

// csrSweep times the engine's exported building blocks on a job's
// inputs, one goroutine each: temporal.BuildCSR of every (scope, ∆) the
// job swept, then temporal.CollectTripLanes on those CSRs.
func csrSweep(src sweep.StreamSource, directed bool, scopes []scope) (buildMs, sweepMs float64, err error) {
	cfg := temporal.Config{N: src.NumNodes(), Directed: directed, Workers: 1}
	var scratch temporal.CSRScratch
	for _, sc := range scopes {
		events, _, err := src.EngineEvents(sc.start, sc.end, !directed)
		if err != nil {
			return 0, 0, err
		}
		if len(events) == 0 {
			continue
		}
		t0 := events[0].T
		for _, d := range sc.deltas {
			start := time.Now()
			c := temporal.BuildCSR(events, t0, d, &scratch)
			mid := time.Now()
			lanes := temporal.CollectTripLanes(cfg, c)
			end := time.Now()
			temporal.RecycleTrips(lanes...)
			buildMs += msOf(mid.Sub(start))
			sweepMs += msOf(end.Sub(mid))
		}
	}
	return buildMs, sweepMs, nil
}

// observerClock accumulates one observer's busy time across every
// callback, whichever engine goroutine runs it.
type observerClock struct {
	busy atomic.Int64
}

func (c *observerClock) since(start time.Time) { c.busy.Add(int64(time.Since(start))) }

func (c *observerClock) ms() float64 { return msOf(time.Duration(c.busy.Load())) }

// timedObserver is the timing shim of the observer replay. It forwards
// every callback unchanged; the wrapper types below add exactly the
// optional interfaces (TripRunObserver, ShardedTripObserver) the wrapped
// observer implements, so the engine plans the same products and the
// replay reproduces the untraced run's counters.
type timedObserver struct {
	inner sweep.Observer
	clock *observerClock
}

func (o *timedObserver) Needs() sweep.Needs { return o.inner.Needs() }

func (o *timedObserver) Begin(v *sweep.StreamView) error {
	defer o.clock.since(time.Now())
	return o.inner.Begin(v)
}

func (o *timedObserver) ObservePeriod(p *sweep.Period) error {
	defer o.clock.since(time.Now())
	if ts, ok := p.Shard.(*timedShard); ok {
		p.Shard = ts.inner // hand the observer back its own shard
	}
	return o.inner.ObservePeriod(p)
}

func (o *timedObserver) observeTripRun(dest int32, run []temporal.Trip) error {
	defer o.clock.since(time.Now())
	return o.inner.(sweep.TripRunObserver).ObserveTripRun(dest, run)
}

func (o *timedObserver) finishTripRuns() error {
	defer o.clock.since(time.Now())
	return o.inner.(sweep.TripRunObserver).FinishTripRuns()
}

func (o *timedObserver) newTripShard(delta int64, blocks, lanes int) sweep.TripShard {
	defer o.clock.since(time.Now())
	sh := o.inner.(sweep.ShardedTripObserver).NewTripShard(delta, blocks, lanes)
	if sh == nil {
		return nil
	}
	return &timedShard{inner: sh, clock: o.clock}
}

type timedShard struct {
	inner sweep.TripShard
	clock *observerClock
}

func (s *timedShard) ObserveTripBlock(block int, lanes [][]temporal.Trip) error {
	defer s.clock.since(time.Now())
	return s.inner.ObserveTripBlock(block, lanes)
}

type timedRuns struct{ *timedObserver }

func (o timedRuns) ObserveTripRun(dest int32, run []temporal.Trip) error {
	return o.observeTripRun(dest, run)
}
func (o timedRuns) FinishTripRuns() error { return o.finishTripRuns() }

type timedShards struct{ *timedObserver }

func (o timedShards) NewTripShard(delta int64, blocks, lanes int) sweep.TripShard {
	return o.newTripShard(delta, blocks, lanes)
}

type timedBoth struct{ *timedObserver }

func (o timedBoth) ObserveTripRun(dest int32, run []temporal.Trip) error {
	return o.observeTripRun(dest, run)
}
func (o timedBoth) FinishTripRuns() error { return o.finishTripRuns() }
func (o timedBoth) NewTripShard(delta int64, blocks, lanes int) sweep.TripShard {
	return o.newTripShard(delta, blocks, lanes)
}

// timeObserver wraps o in the shim matching its optional interfaces.
func timeObserver(o sweep.Observer, clock *observerClock) sweep.Observer {
	t := &timedObserver{inner: o, clock: clock}
	_, runs := o.(sweep.TripRunObserver)
	_, shards := o.(sweep.ShardedTripObserver)
	switch {
	case runs && shards:
		return timedBoth{t}
	case runs:
		return timedRuns{t}
	case shards:
		return timedShards{t}
	}
	return t
}

// replayPass runs one engine pass over src with every observer behind a
// timing shim and returns the pass's counters. names[i][j] picks the
// clock that times observer j of segment i.
func replayPass(ctx context.Context, src sweep.StreamSource, directed bool, segs []sweep.SegmentObserver, clocks map[string]*observerClock, names [][]string) (repro.EngineStats, error) {
	var stats repro.EngineStats
	wrapped := make([]sweep.SegmentObserver, len(segs))
	for i, seg := range segs {
		w := seg
		w.Observers = make([]sweep.Observer, len(seg.Observers))
		for j, o := range seg.Observers {
			c := clocks[names[i][j]]
			if c == nil {
				return stats, fmt.Errorf("no clock for observer %q", names[i][j])
			}
			w.Observers[j] = timeObserver(o, c)
		}
		wrapped[i] = w
	}
	err := sweep.RunSource(ctx, src, sweep.Options{Directed: directed, Stats: &stats}, wrapped...)
	return stats, err
}

// newClocks returns one clock per observer metric name.
func newClocks(names ...string) map[string]*observerClock {
	out := make(map[string]*observerClock, len(names))
	for _, n := range names {
		out[n] = &observerClock{}
	}
	return out
}

// openTimed opens a columnar file the way a plan does and times it:
// linkstream.OpenMapped plus the header hash every stream ref carries.
func openTimed(path string, reps int) (float64, error) {
	return timeIt(reps, func() error {
		col, err := linkstream.OpenMapped(path)
		if err != nil {
			return err
		}
		_ = col.HeaderHash()
		return col.Close()
	})
}
