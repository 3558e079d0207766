package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro"
	"repro/internal/classic"
	"repro/internal/core"
	"repro/internal/linkstream"
	"repro/internal/serve"
	"repro/internal/sweep"
	"repro/internal/synth"
	"repro/internal/validate"
)

// paper-batch: one in-process caller in a closed loop, each job the
// paper's whole analysis of one Irvine-shaped stream — occupancy search
// with refinement plus the classic, loss and elongation curves, fused
// into one engine pass per round — through NewAnalysis → Plan.Run →
// Close over a memory-mapped columnar file.
const (
	paperGridPoints = 8
	paperRefine     = 4
)

var paperMetrics = []repro.Metric{repro.MetricOccupancy, repro.MetricClassic, repro.MetricTransitionLoss, repro.MetricElongation}

type paperBatch struct {
	seed int64
	dir  string
	t    *tracer
	path string
	ref  []byte

	mu       sync.Mutex
	stats    []repro.EngineStats // every checked job's engine counters
	untraced repro.EngineStats   // one untraced job's counters
	pass0    []passCounters      // pass 0 of each traced job
	deltas   []int64             // every ∆ one traced job scored
}

func newPaperBatch(seed int64, dir string, t *tracer) *paperBatch {
	return &paperBatch{seed: seed, dir: dir, t: t}
}

// irvineShaped is the Irvine stand-in's generator configuration
// (internal/datasets) under the run's seed: 380 nodes over 48 days,
// ≈12k messages.
func irvineShaped(seed int64) (*linkstream.Stream, error) {
	return synth.MessageNetwork(synth.MessageConfig{
		Nodes: 380, Days: 48, MsgsPerPersonDay: 0.66, Seed: seed,
		ActivityExponent: 0.9, Reciprocity: 0.35, PartnerAffinity: 0.6,
	})
}

// writeColumnar converts a sorted stream to a columnar (LSC) file.
func writeColumnar(s *linkstream.Stream, path string, skipEvery int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteColumnar(f, linkstream.ColumnarOptions{SkipEvery: skipEvery}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (pb *paperBatch) clients() int { return 1 }

func (pb *paperBatch) close() {}

func (pb *paperBatch) setup(ctx context.Context) error {
	s, err := irvineShaped(pb.seed)
	if err != nil {
		return err
	}
	pb.path = filepath.Join(pb.dir, "irvine.lsc")
	if err := writeColumnar(s, pb.path, 0); err != nil {
		return err
	}
	// The reference run is the job itself, so it doubles as the
	// warm-up job.
	ref, _, err := pb.analyse(ctx, nil)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	pb.ref = ref
	return nil
}

// analyse runs the job's plan once and returns the encoded report and
// its engine counters; jt, when set, receives the job's spans.
func (pb *paperBatch) analyse(ctx context.Context, jt *jobTrace) ([]byte, repro.EngineStats, error) {
	var log progressLog
	opts := []repro.Option{
		repro.WithStreamPath(pb.path),
		repro.WithMetrics(paperMetrics...),
		repro.WithGridPoints(paperGridPoints),
		repro.WithRefine(paperRefine),
	}
	if jt != nil {
		opts = append(opts, repro.WithProgress(log.record))
	}
	start := time.Now()
	plan, err := repro.NewAnalysis(nil, opts...)
	if err != nil {
		return nil, repro.EngineStats{}, err
	}
	planned := time.Now()
	rep, err := plan.Run(ctx)
	ran := time.Now()
	if err != nil {
		plan.Close()
		return nil, repro.EngineStats{}, err
	}
	data, err := serve.EncodeReport(rep)
	encoded := time.Now()
	cerr := plan.Close()
	closed := time.Now()
	if err != nil {
		return nil, repro.EngineStats{}, err
	}
	if cerr != nil {
		return nil, repro.EngineStats{}, cerr
	}
	if jt != nil {
		jt.add(0, "plan.new", "", start, planned)
		runID := jt.add(0, "plan.run", "", planned, ran)
		pc, deltas := engineSpans(jt, runID, planned, ran, log.events())
		jt.add(0, "serve.encode", "", ran, encoded)
		jt.add(0, "plan.close", "", encoded, closed)
		pb.mu.Lock()
		pb.pass0 = append(pb.pass0, pc)
		if pb.deltas == nil {
			pb.deltas = deltas
		}
		pb.mu.Unlock()
	}
	return data, rep.EngineStats(), nil
}

func (pb *paperBatch) job(ctx context.Context, _ int, jt *jobTrace) jobResult {
	start := time.Now()
	data, stats, err := pb.analyse(ctx, jt)
	ok := err == nil && bytes.Equal(data, pb.ref)
	lat := time.Since(start)
	jt.end("miss")
	if ok {
		pb.mu.Lock()
		pb.stats = append(pb.stats, stats)
		if jt == nil {
			pb.untraced = stats
		}
		pb.mu.Unlock()
	}
	return jobResult{latency: lat, ok: ok, kind: "miss"}
}

func (pb *paperBatch) layers(ctx context.Context, run *timedRun, m metricSet) error {
	pb.mu.Lock()
	traced := len(pb.pass0)
	pb.mu.Unlock()
	if traced == 0 {
		// The timed phase was too short to reach a traced job.
		if r := pb.job(ctx, 0, pb.t.newJob()); !r.ok {
			return errors.New("traced job does not reproduce the reference report")
		}
	}
	spans := run.tracer.snapshot()
	pb.mu.Lock()
	stats, pass0, deltas, untraced := pb.stats, pb.pass0, pb.deltas, pb.untraced
	pb.mu.Unlock()
	setEngineStats(m, stats)
	setEngineSpans(m, spans)
	m.set("plan.new_ms", median(durations(spans, "plan.new")))
	m.set("serve.encode_ms", median(durations(spans, "serve.encode")))
	for _, s := range stats {
		if !sameCounters(s, untraced) {
			return fmt.Errorf("job counters differ between runs: %+v vs %+v", s, untraced)
		}
	}

	open, err := openTimed(pb.path, 20)
	if err != nil {
		return err
	}
	m.set("ingest.open_ms", open)

	col, err := linkstream.OpenMapped(pb.path)
	if err != nil {
		return err
	}
	defer col.Close()
	build, sweepMs, err := csrSweep(col, false, []scope{{deltas: distinct(deltas)}})
	if err != nil {
		return err
	}
	m.set("engine.csr_build_ms", build)
	m.set("engine.sweep_ms", sweepMs)

	// Replay pass 0 — the plan's global grid, its occupancy search
	// observer and the three curve observers, in the plan's order — with
	// every observer behind a timing shim.
	grid := core.LogGrid(col.Resolution(), col.Duration(), paperGridPoints)
	search, err := core.NewScaleSearch(core.Options{Grid: grid, Refine: paperRefine})
	if err != nil {
		return err
	}
	g, occ, _ := search.Next()
	seg := sweep.SegmentObserver{Grid: g, Observers: []sweep.Observer{
		occ, classic.NewObserver(), validate.NewTransitionLossObserver(), validate.NewElongationObserver(),
	}}
	clocks := newClocks("occupancy", "classic", "loss", "elongation")
	rs, err := replayPass(ctx, col, false, []sweep.SegmentObserver{seg}, clocks,
		[][]string{{"occupancy", "classic", "loss", "elongation"}})
	if err != nil {
		return err
	}
	want := pass0[0]
	if rs.Passes != 1 || rs.SortSkips != 1 || rs.Builds != want.builds || rs.Dedups != want.dedups ||
		rs.StreamBuilds != want.streamBuilds || rs.Periods != int64(want.periods) {
		return fmt.Errorf("observer replay counters %+v differ from the job's pass 0 %+v", rs, want)
	}
	for name, c := range clocks {
		m.set("observers."+name+"_ms", c.ms())
	}
	return nil
}

// distinct returns the sorted distinct values of xs.
func distinct(xs []int64) []int64 {
	seen := make(map[int64]bool, len(xs))
	var out []int64
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
