package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/linkstream"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/sweep"
)

// distrib-windows: one client in a closed loop POSTing windowed specs —
// the global scope plus three windows, occupancy (refined) and degree —
// to an in-process coordinator whose two in-process tsserve workers
// joined through distrib.JoinLoop and heartbeat for the whole run. Each
// job's stream ref names its own copy of the stream, written with its
// own skip-index stride, so no shard's result key ever repeats (no
// worker cache hit) while every job's report must equal the local run's.
const (
	distribWorkers    = 2
	distribGridPoints = 8
	distribRefine     = 4
	// distribMinDelta starts every scope's grid at one hour. Periods
	// near the 1 s resolution cost more than the rest of the grid
	// together and sit in one shard, so the job time would be that one
	// shard's, whichever worker drew it.
	distribMinDelta    = 3600
	distribWindowCount = 3
	distribWarmup      = 2
)

type distribWindows struct {
	seed int64
	dir  string
	t    *tracer

	stream  *linkstream.Stream
	windows []repro.Window
	ref     []byte

	coord    *distrib.Coordinator
	queues   []*serve.Queue
	servers  []*http.Server
	hosts    map[string]int // worker host:port → index
	coordURL string
	client   *http.Client
	joinStop context.CancelFunc
	joinDone sync.WaitGroup
	nextFile atomic.Int64
	current  atomic.Pointer[distribJob]

	mu       sync.Mutex
	shards   []float64       // ShardsDispatched per checked job
	jobs     []*distribJob   // traced jobs
	lastSpec *repro.PlanSpec // the last checked job's spec
}

// distribJob is the in-flight traced job the coordinator's transport and
// the workers' middleware attribute their spans to.
type distribJob struct {
	jt    *jobTrace
	mu    sync.Mutex
	stats repro.EngineStats
}

func newDistribWindows(seed int64, dir string, t *tracer) *distribWindows {
	return &distribWindows{seed: seed, dir: dir, t: t}
}

func (dw *distribWindows) clients() int { return 1 }

func (dw *distribWindows) spec(path string) *repro.PlanSpec {
	return &repro.PlanSpec{
		Stream:     &repro.StreamRef{Path: path},
		Metrics:    []string{"occupancy", "degree"},
		GridPoints: distribGridPoints,
		MinDelta:   distribMinDelta,
		Refine:     distribRefine,
		Windows:    dw.windows,
	}
}

func (dw *distribWindows) setup(ctx context.Context) error {
	s, err := irvineShaped(dw.seed)
	if err != nil {
		return err
	}
	dw.stream = s
	t0, t1, _ := s.Span()
	width := (t1 - t0) / distribWindowCount
	rng := rand.New(rand.NewSource(dw.seed))
	for k := int64(0); k < distribWindowCount; k++ {
		start := t0 + k*width + rng.Int63n(width/8)
		end := start + width - width/8
		dw.windows = append(dw.windows, repro.Window{Start: start, End: end, Grid: repro.LogGrid(distribMinDelta, end-start, distribGridPoints)})
	}
	base := filepath.Join(dw.dir, "irvine.lsc")
	if err := writeColumnar(s, base, 0); err != nil {
		return err
	}
	plan, err := dw.spec(base).NewPlan()
	if err != nil {
		return err
	}
	rep, err := plan.Run(ctx)
	plan.Close()
	if err != nil {
		return fmt.Errorf("local reference run: %w", err)
	}
	if dw.ref, err = serve.EncodeReport(rep); err != nil {
		return err
	}

	// Coordinator and workers on loopback listeners.
	dw.coord = distrib.NewCoordinator(distrib.Config{
		StreamRoot: dw.dir,
		Client:     &http.Client{Transport: &dispatchClock{dw: dw, next: http.DefaultTransport}},
	})
	cln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	dw.coordURL = "http://" + cln.Addr().String()
	dw.serve(cln, dw.coord.Handler())
	dw.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}

	joinCtx, cancel := context.WithCancel(context.Background())
	dw.joinStop = cancel
	dw.hosts = map[string]int{}
	for i := 0; i < distribWorkers; i++ {
		// One shard run at a time per worker: two workers keep both
		// cores busy without oversubscribing them.
		q := serve.NewQueue(serve.QueueConfig{StreamRoot: dw.dir, TenantBudget: 1})
		dw.queues = append(dw.queues, q)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		dw.hosts[ln.Addr().String()] = i
		dw.serve(ln, dw.workerClock(i, serve.NewServer(q)))
		name, url := fmt.Sprintf("worker-%d", i), "http://"+ln.Addr().String()
		dw.joinDone.Add(1)
		go func() {
			defer dw.joinDone.Done()
			// JoinLoop retries failures itself and returns only once
			// joinCtx ends.
			_ = distrib.JoinLoop(joinCtx, nil, dw.coordURL, name, url, 2*time.Second)
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); len(dw.coord.Registry().Live()) < distribWorkers; {
		if time.Now().After(deadline) {
			return errors.New("workers did not join the coordinator")
		}
		time.Sleep(5 * time.Millisecond)
	}

	for i := 0; i < distribWarmup; i++ {
		if r := dw.job(ctx, 0, nil); !r.ok {
			return errors.New("warm-up job failed")
		}
	}
	dw.mu.Lock()
	dw.shards = nil
	dw.mu.Unlock()
	return nil
}

func (dw *distribWindows) serve(ln net.Listener, h http.Handler) {
	srv := &http.Server{Handler: h}
	dw.servers = append(dw.servers, srv)
	go srv.Serve(ln)
}

// job runs one distributed job over a fresh copy of the stream.
func (dw *distribWindows) job(ctx context.Context, _ int, jt *jobTrace) jobResult {
	n := dw.nextFile.Add(1)
	name := fmt.Sprintf("irvine-%04d.lsc", n)
	if err := writeColumnar(dw.stream, filepath.Join(dw.dir, name), linkstream.DefaultSkipEvery+int(n)); err != nil {
		return jobResult{}
	}
	spec := dw.spec(name)
	body, err := serve.EncodePlan(spec)
	if err != nil {
		return jobResult{}
	}
	var dj *distribJob
	if jt != nil {
		dj = &distribJob{jt: jt}
		dw.current.Store(dj)
		defer dw.current.Store(nil)
	}
	before, wbefore := dw.coord.Stats(), dw.workerHits()

	start := time.Now()
	ok := false
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, dw.coordURL+"/v1/jobs", bytes.NewReader(body))
	if err == nil {
		req.Header.Set("Content-Type", "application/json")
		if resp, err := dw.client.Do(req); err == nil {
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			ok = err == nil && resp.StatusCode == http.StatusOK && bytes.Equal(data, dw.ref)
		}
	}
	lat := time.Since(start)

	// A job that fell back to in-process execution, retried or timed out
	// a shard, or was served from a worker cache is not the distributed
	// program this workload measures: it counts as failed.
	after := dw.coord.Stats()
	if after.LocalRuns != before.LocalRuns || after.LocalShardRuns != before.LocalShardRuns ||
		after.ShardRetries != before.ShardRetries || after.ShardTimeouts != before.ShardTimeouts ||
		dw.workerHits() != wbefore {
		ok = false
	}
	jt.end("miss")
	if ok {
		dw.mu.Lock()
		dw.shards = append(dw.shards, float64(after.ShardsDispatched-before.ShardsDispatched))
		dw.lastSpec = spec
		if dj != nil {
			dw.jobs = append(dw.jobs, dj)
		}
		dw.mu.Unlock()
	}
	return jobResult{latency: lat, ok: ok, kind: "miss"}
}

func (dw *distribWindows) workerHits() int64 {
	var hits int64
	for _, q := range dw.queues {
		hits += q.Stats().CacheHits
	}
	return hits
}

// dispatchClock is the coordinator's shard transport: it times each
// shard POST from dispatch to the last byte of the partial, and sums the
// engine counters of the worker job that served it.
type dispatchClock struct {
	dw   *distribWindows
	next http.RoundTripper
}

func (d *dispatchClock) RoundTrip(req *http.Request) (*http.Response, error) {
	dj := d.dw.current.Load()
	if dj == nil {
		return d.next.RoundTrip(req)
	}
	start := time.Now()
	resp, err := d.next.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	if i, ok := d.dw.hosts[req.URL.Host]; ok {
		if job, ok := d.dw.queues[i].Job(resp.Header.Get("X-Job-ID")); ok {
			dj.mu.Lock()
			dj.stats.Add(job.EngineStats())
			dj.mu.Unlock()
		}
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		dj.jt.add(0, "distrib.dispatch", req.URL.Host, start, time.Now())
	}}
	return resp, nil
}

// timedBody calls done once, when the body is read to EOF or closed.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// workerClock times each worker's Server.ServeHTTP for traced jobs.
func (dw *distribWindows) workerClock(i int, h http.Handler) http.Handler {
	tag := fmt.Sprintf("worker-%d", i)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		dj := dw.current.Load()
		if dj == nil || r.URL.Path != "/v1/shards" {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		dj.jt.add(0, "distrib.worker", tag, start, time.Now())
	})
}

func (dw *distribWindows) close() {
	if dw.joinStop != nil {
		dw.joinStop()
		dw.joinDone.Wait()
	}
	for _, srv := range dw.servers {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		srv.Shutdown(ctx)
		cancel()
	}
	if dw.client != nil {
		dw.client.CloseIdleConnections()
	}
	for _, q := range dw.queues {
		q.Close()
	}
}

func (dw *distribWindows) layers(ctx context.Context, run *timedRun, m metricSet) error {
	dw.mu.Lock()
	traced := len(dw.jobs)
	dw.mu.Unlock()
	if traced == 0 {
		// The timed phase was too short to reach a traced job.
		if r := dw.job(ctx, 0, dw.t.newJob()); !r.ok {
			return errors.New("traced job failed")
		}
	}
	dw.mu.Lock()
	shards, jobs, spec := dw.shards, dw.jobs, dw.lastSpec
	dw.mu.Unlock()
	spans := run.tracer.snapshot()

	var stats []repro.EngineStats
	for _, dj := range jobs {
		stats = append(stats, dj.stats)
	}
	setEngineStats(m, stats)
	m.set("distrib.shards", median(shards))
	m.set("distrib.dispatch_ms", median(durations(spans, "distrib.dispatch")))
	m.set("distrib.worker_ms", median(durations(spans, "distrib.worker")))

	// Self time: the job span minus the union of its dispatch spans.
	byJob := map[int64][]span{}
	roots := map[int64]span{}
	for _, s := range spans {
		switch s.Name {
		case "job":
			roots[s.Job] = s
		case "distrib.dispatch", "distrib.worker":
			byJob[s.Job] = append(byJob[s.Job], s)
		}
	}
	var self, skew []float64
	for id, root := range roots {
		var dispatch []span
		busy := map[string]float64{}
		for _, s := range byJob[id] {
			if s.Name == "distrib.dispatch" {
				dispatch = append(dispatch, s)
			} else {
				busy[s.Tag] += s.ms()
			}
		}
		if len(dispatch) == 0 {
			continue
		}
		self = append(self, root.ms()-union(dispatch))
		total, max := 0.0, 0.0
		for i := 0; i < distribWorkers; i++ {
			b := busy[fmt.Sprintf("worker-%d", i)]
			total += b
			if b > max {
				max = b
			}
		}
		if total > 0 {
			skew = append(skew, max/(total/distribWorkers))
		}
	}
	m.set("distrib.self_ms", median(self))
	m.set("distrib.worker_skew", median(skew))

	// Out-of-band calls on the last job's spec, resolved under the root.
	res := *spec
	ref := *spec.Stream
	ref.Path = filepath.Join(dw.dir, ref.Path)
	res.Stream = &ref

	var round0 int
	part, err := timeIt(5, func() error {
		sh, err := repro.PartitionSpec(&res, distribWorkers)
		round0 = len(sh)
		return err
	})
	if err != nil {
		return err
	}
	m.set("distrib.partition_ms", part)
	m.set("distrib.refine_shards", median(shards)-float64(round0))

	body, err := serve.EncodePlan(spec)
	if err != nil {
		return err
	}
	dec, err := timeIt(5, func() error { _, err := serve.DecodePlan(body); return err })
	if err != nil {
		return err
	}
	m.set("serve.decode_ms", dec)
	newMs, err := timeIt(5, func() error {
		plan, err := res.NewPlan()
		if err != nil {
			return err
		}
		return plan.Close()
	})
	if err != nil {
		return err
	}
	m.set("plan.new_ms", newMs)

	col, err := linkstream.OpenMapped(ref.Path)
	if err != nil {
		return err
	}
	defer col.Close()
	streamID := "columnar:" + col.HeaderHash()
	key, err := timeIt(5, func() error { _, err := serve.SpecKey(spec, streamID); return err })
	if err != nil {
		return err
	}
	m.set("serve.key_ms", key)
	open, err := openTimed(ref.Path, 10)
	if err != nil {
		return err
	}
	m.set("ingest.open_ms", open)
	hits := col.SliceHits()
	slice, err := timeIt(5, func() error {
		for _, w := range dw.windows {
			if _, _, err := col.EngineEvents(w.Start, w.End, true); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("ingest.slice_ms", slice)
	m.set("ingest.skip_index_hits", float64(col.SliceHits()-hits)/5)

	// Local runs of the same spec: the distributed/local ratio, and the
	// engine's stages through the plan's progress events.
	var local []float64
	var rep *repro.Report
	var pass0 passCounters
	for i := 0; i < 2; i++ {
		jt := dw.t.newJob()
		var log progressLog
		plan, err := res.NewPlan(repro.WithProgress(log.record))
		if err != nil {
			return err
		}
		start := time.Now()
		rep, err = plan.Run(ctx)
		end := time.Now()
		plan.Close()
		if err != nil {
			return err
		}
		local = append(local, msOf(end.Sub(start)))
		pass0, _ = engineSpans(jt, 0, start, end, log.events())
		jt.end("replay")
	}
	var untraced []float64
	for _, r := range run.results {
		if r.ok && !r.traced {
			untraced = append(untraced, msOf(r.latency))
		}
	}
	m.set("distrib.local_ratio", median(untraced)/median(local))
	setEngineSpans(m, dw.t.snapshot())
	enc, err := timeIt(5, func() error { _, err := serve.EncodeReport(rep); return err })
	if err != nil {
		return err
	}
	m.set("serve.encode_ms", enc)

	// CSR builds and lane sweeps of every (scope, ∆) the job scored.
	scopes := []scope{{deltas: pointDeltas(rep.Occupancy())}}
	for _, w := range rep.Windows() {
		scopes = append(scopes, scope{start: w.Start, end: w.End, deltas: pointDeltas(w.Curves.Occupancy)})
	}
	build, sweepMs, err := csrSweep(col, false, scopes)
	if err != nil {
		return err
	}
	m.set("engine.csr_build_ms", build)
	m.set("engine.sweep_ms", sweepMs)

	// Observer replay of pass 0: every scope's round-0 grid with its
	// occupancy search observer and degree observer, as the plan
	// registers them.
	var segs []sweep.SegmentObserver
	var names [][]string
	global := core.LogGrid(distribMinDelta, col.Duration(), distribGridPoints)
	add := func(start, end int64, grid []int64) error {
		search, err := core.NewScaleSearch(core.Options{Grid: grid, Refine: distribRefine})
		if err != nil {
			return err
		}
		g, occ, _ := search.Next()
		segs = append(segs, sweep.SegmentObserver{Start: start, End: end, Grid: g, Observers: []sweep.Observer{occ, metrics.NewDegreeObserver()}})
		names = append(names, []string{"occupancy", "degree"})
		return nil
	}
	if err := add(0, 0, global); err != nil {
		return err
	}
	for _, w := range dw.windows {
		if err := add(w.Start, w.End, w.Grid); err != nil {
			return err
		}
	}
	clocks := newClocks("occupancy", "degree")
	rs, err := replayPass(ctx, col, false, segs, clocks, names)
	if err != nil {
		return err
	}
	if rs.Builds != pass0.builds || rs.Dedups != pass0.dedups || rs.StreamBuilds != pass0.streamBuilds || rs.Periods != int64(pass0.periods) {
		return fmt.Errorf("observer replay counters %+v differ from the local run's pass 0 %+v", rs, pass0)
	}
	m.set("observers.occupancy_ms", clocks["occupancy"].ms())
	m.set("observers.degree_ms", clocks["degree"].ms())
	return nil
}

func pointDeltas(pts []repro.SweepPoint) []int64 {
	out := make([]int64, len(pts))
	for i, p := range pts {
		out[i] = p.Delta
	}
	return out
}

// union returns the total length of the union of the spans' intervals.
func union(spans []span) float64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	total, curS, curE := 0.0, spans[0].Start, spans[0].End
	for _, s := range spans[1:] {
		if s.Start > curE {
			total += curE - curS
			curS, curE = s.Start, s.End
			continue
		}
		if s.End > curE {
			curE = s.End
		}
	}
	return total + curE - curS
}
