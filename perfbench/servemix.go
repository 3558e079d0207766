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
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/linkstream"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/sweep"
	"repro/internal/synth"
)

// serve-mix: two HTTP clients in a closed loop against an in-process
// tsserve (serve.NewQueue + serve.NewServer on a loopback listener),
// each request a POST /v1/jobs?wait=1 of a snapshot-metric spec. Half
// of the requests come from a hot set of serveTemplates specs (fewer
// than the queue's 128 result-cache entries); the other half are fresh:
// a template under a variant the server has not seen within its cache
// window. A variant changes the result key but not the result — inline
// variants relabel every node with a fixed-width prefix, columnar
// variants point at a copy of the stream written with another skip-index
// stride (the header hash covers it) — so every response is checked
// against its template's reference report.
const (
	serveTemplates = 24
	// serveVariants exceeds the queue's default 128 cache entries: a
	// fresh (template, variant) key comes back only after at least
	// serveVariants-1 other fresh runs completed, so it is always evicted.
	serveVariants = 136
	serveClients  = 2
)

var snapshotMetricNames = []string{"degree", "components", "weighted"}

// inlineSizes are the event counts of the inline streams.
var inlineSizes = []int{1000, 2500, 5000, 10000}

type serveTemplate struct {
	spec   repro.PlanSpec // variant 0
	inline bool
	body   []byte // variant 0 submit envelope (inline templates)
	ref    []byte // EncodeReport of an in-process Plan.Run
}

type serveMix struct {
	seed int64
	dir  string
	t    *tracer

	templates []serveTemplate
	queue     *serve.Queue
	server    *http.Server
	url       string
	client    *http.Client
	rngs      []*rand.Rand
	fresh     atomic.Int64
	handled   sync.Map // traced job ID → [2]time.Time handler span

	mu        sync.Mutex
	before    serve.QueueStats // queue counters when the timed phase starts
	missStats []repro.EngineStats

	// The queue-depth sampler of traced runs.
	sampler   sync.Once
	stopOnce  sync.Once
	stopC     chan struct{}
	doneC     chan struct{}
	queuedMax atomic.Int64
}

func newServeMix(seed int64, dir string, t *tracer) *serveMix {
	return &serveMix{seed: seed, dir: dir, t: t}
}

func (sm *serveMix) clients() int { return serveClients }

// variantPrefix is the node-name prefix of inline variant v; every
// prefix has the same width, so variant bodies have identical sizes.
func variantPrefix(v int) string { return fmt.Sprintf("v%03x.", v) }

func columnarVariant(v int) string { return fmt.Sprintf("irvine-%03d.lsc", v) }

func (sm *serveMix) setup(ctx context.Context) error {
	// Inline bases: message networks of 1k–10k events over 200 nodes.
	var inline []*linkstream.Stream
	for i, n := range inlineSizes {
		s, err := synth.MessageNetwork(synth.MessageConfig{
			Nodes: 200, Days: n / 200, MsgsPerPersonDay: 1, Seed: sm.seed*31 + int64(i),
			ActivityExponent: 0.9, Reciprocity: 0.35, PartnerAffinity: 0.6,
		})
		if err != nil {
			return err
		}
		inline = append(inline, s)
	}
	// Columnar base: the Irvine-shaped stream, once per variant stride.
	irvine, err := irvineShaped(sm.seed)
	if err != nil {
		return err
	}
	for v := 0; v < serveVariants; v++ {
		if err := writeColumnar(irvine, filepath.Join(sm.dir, columnarVariant(v)), linkstream.DefaultSkipEvery+v); err != nil {
			return err
		}
	}

	// Templates: a fixed design — the seed only changes the streams and
	// the request sequence. A third carry inline streams (two metric
	// subsets per inline size), the rest are columnar refs over the
	// (metric subset, grid points) combinations; every key differs.
	subsets := metricSubsets()
	for i := range inlineSizes {
		for j := 0; j < 2; j++ {
			spec := repro.PlanSpec{
				Metrics:    subsets[(2*i+j)%len(subsets)],
				GridPoints: 8,
				Inline:     relabel(repro.InlineEventsOf(inline[i]), variantPrefix(0)),
			}
			if err := sm.addTemplate(ctx, spec, true); err != nil {
				return err
			}
		}
	}
	for i := 0; len(sm.templates) < serveTemplates; i++ {
		spec := repro.PlanSpec{
			Metrics:    subsets[i%len(subsets)],
			GridPoints: 6 + 2*(i/len(subsets)),
			Stream:     &repro.StreamRef{Path: columnarVariant(0)},
		}
		if err := sm.addTemplate(ctx, spec, false); err != nil {
			return err
		}
	}

	sm.queue = serve.NewQueue(serve.QueueConfig{StreamRoot: sm.dir})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	sm.url = "http://" + ln.Addr().String()
	sm.server = &http.Server{Handler: sm.middleware(serve.NewServer(sm.queue))}
	go sm.server.Serve(ln)
	sm.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: serveClients, MaxConnsPerHost: serveClients, DisableCompression: true,
	}}
	for c := 0; c < serveClients; c++ {
		sm.rngs = append(sm.rngs, rand.New(rand.NewSource(sm.seed*7919+int64(c))))
	}

	// Warm-up: every hot spec once (each a miss that fills the cache),
	// then a round of fresh requests.
	for t := range sm.templates {
		if r := sm.send(ctx, t, 0, nil); !r.ok {
			return fmt.Errorf("warm-up request of template %d failed", t)
		}
	}
	for i := 0; i < 8; i++ {
		if r := sm.send(ctx, i%len(sm.templates), sm.nextVariant(), nil); !r.ok {
			return errors.New("warm-up fresh request failed")
		}
	}
	sm.mu.Lock()
	sm.before = sm.queue.Stats()
	sm.missStats = nil
	sm.mu.Unlock()
	return nil
}

// metricSubsets lists the non-empty subsets of the snapshot metrics.
func metricSubsets() [][]string {
	var out [][]string
	for mask := 1; mask < 1<<len(snapshotMetricNames); mask++ {
		var ms []string
		for i, name := range snapshotMetricNames {
			if mask&(1<<i) != 0 {
				ms = append(ms, name)
			}
		}
		out = append(out, ms)
	}
	return out
}

// addTemplate encodes spec and computes its reference report.
func (sm *serveMix) addTemplate(ctx context.Context, spec repro.PlanSpec, inline bool) error {
	tpl := serveTemplate{spec: spec, inline: inline}
	var err error
	if inline {
		if tpl.body, err = serve.EncodePlan(&spec); err != nil {
			return err
		}
	}
	if tpl.ref, err = sm.reference(ctx, &spec); err != nil {
		return fmt.Errorf("reference run of template %d: %w", len(sm.templates), err)
	}
	sm.templates = append(sm.templates, tpl)
	return nil
}

// relabel prefixes every node name of events.
func relabel(events []repro.InlineEvent, prefix string) []repro.InlineEvent {
	out := make([]repro.InlineEvent, len(events))
	for i, e := range events {
		out[i] = repro.InlineEvent{U: prefix + e.U, V: prefix + e.V, T: e.T}
	}
	return out
}

// resolved returns the spec with its stream ref pointing at the file.
func (sm *serveMix) resolved(spec *repro.PlanSpec) *repro.PlanSpec {
	out := *spec
	if spec.Stream != nil {
		ref := *spec.Stream
		ref.Path = filepath.Join(sm.dir, ref.Path)
		out.Stream = &ref
	}
	return &out
}

// reference runs spec in-process and encodes its report.
func (sm *serveMix) reference(ctx context.Context, spec *repro.PlanSpec) ([]byte, error) {
	plan, err := sm.resolved(spec).NewPlan()
	if err != nil {
		return nil, err
	}
	defer plan.Close()
	rep, err := plan.Run(ctx)
	if err != nil {
		return nil, err
	}
	return serve.EncodeReport(rep)
}

func (sm *serveMix) nextVariant() int { return 1 + int(sm.fresh.Add(1)-1)%(serveVariants-1) }

// body returns the submit envelope of template t under variant v.
func (sm *serveMix) body(t, v int) ([]byte, error) {
	tpl := &sm.templates[t]
	if tpl.inline {
		if v == 0 {
			return tpl.body, nil
		}
		return bytes.ReplaceAll(tpl.body, []byte(`"`+variantPrefix(0)), []byte(`"`+variantPrefix(v))), nil
	}
	spec := tpl.spec
	spec.Stream = &repro.StreamRef{Path: columnarVariant(v)}
	return serve.EncodePlan(&spec)
}

// middleware times Server.ServeHTTP for traced requests, which carry
// their job ID in X-Bench-Job.
func (sm *serveMix) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Bench-Job")
		if id == "" {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		sm.handled.Store(id, [2]time.Time{start, time.Now()})
	})
}

func (sm *serveMix) job(ctx context.Context, c int, jt *jobTrace) jobResult {
	if jt != nil {
		sm.sampler.Do(sm.startSampler)
	}
	rng := sm.rngs[c]
	t := rng.Intn(len(sm.templates))
	v := 0
	if rng.Intn(2) == 1 {
		v = sm.nextVariant()
	}
	return sm.send(ctx, t, v, jt)
}

// send POSTs template t under variant v and checks the report.
func (sm *serveMix) send(ctx context.Context, t, v int, jt *jobTrace) jobResult {
	body, err := sm.body(t, v)
	if err != nil {
		return jobResult{}
	}
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, sm.url+"/v1/jobs?wait=1", bytes.NewReader(body))
	if err != nil {
		return jobResult{}
	}
	req.Header.Set("Content-Type", "application/json")
	var id string
	if jt != nil {
		id = strconv.FormatInt(jt.id, 10)
		req.Header.Set("X-Bench-Job", id)
	}
	resp, err := sm.client.Do(req)
	if err != nil {
		return jobResult{latency: time.Since(start)}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ok := err == nil && resp.StatusCode == http.StatusOK && bytes.Equal(data, sm.templates[t].ref)
	end := time.Now()

	kind := ""
	if job, found := sm.queue.Job(resp.Header.Get("X-Job-ID")); found {
		switch {
		case job.CacheHit:
			kind = "hit"
		case job.Coalesced:
			kind = "coalesced"
		default:
			kind = "miss"
			sm.mu.Lock()
			sm.missStats = append(sm.missStats, job.EngineStats())
			sm.mu.Unlock()
		}
	} else {
		ok = false
	}
	if jt != nil {
		jt.add(0, "serve.roundtrip", kind, start, end)
		if hs, found := sm.handled.LoadAndDelete(id); found {
			span := hs.([2]time.Time)
			jt.add(0, "serve.handler", kind, span[0], span[1])
		}
		jt.end(kind)
	}
	return jobResult{latency: end.Sub(start), ok: ok, kind: kind}
}

// startSampler polls the queue depth every 5ms until stopSampler.
func (sm *serveMix) startSampler() {
	sm.stopC, sm.doneC = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sm.doneC)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			if q := int64(sm.queue.Gauges().Queued); q > sm.queuedMax.Load() {
				sm.queuedMax.Store(q)
			}
			select {
			case <-tick.C:
			case <-sm.stopC:
				return
			}
		}
	}()
}

// stopSampler stops the sampler, if one started, and waits for it.
func (sm *serveMix) stopSampler() {
	sm.stopOnce.Do(func() {
		if sm.stopC != nil {
			close(sm.stopC)
			<-sm.doneC
		}
	})
}

func (sm *serveMix) close() {
	sm.stopSampler()
	if sm.server != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		sm.server.Shutdown(ctx)
		cancel()
	}
	if sm.client != nil {
		sm.client.CloseIdleConnections()
	}
	if sm.queue != nil {
		sm.queue.Close()
	}
}

func (sm *serveMix) layers(ctx context.Context, run *timedRun, m metricSet) error {
	sm.stopSampler()
	after := sm.queue.Stats()
	sm.mu.Lock()
	before, missStats := sm.before, sm.missStats
	sm.mu.Unlock()
	if sub := after.Submitted - before.Submitted; sub > 0 {
		m.set("serve.cache_hit_ratio", float64(after.CacheHits-before.CacheHits)/float64(sub))
		m.set("serve.coalesced_ratio", float64(after.Coalesced-before.Coalesced)/float64(sub))
	}
	m.set("serve.queued_max", float64(sm.queuedMax.Load()))
	setEngineStats(m, missStats)

	// Handler time and the HTTP share of cache hits, the requests whose
	// latency these layers dominate.
	spans := run.tracer.snapshot()
	handler := map[int64]float64{}
	for _, s := range spans {
		if s.Name == "serve.handler" && s.Tag == "hit" {
			handler[s.Job] = s.ms()
		}
	}
	var hs, https []float64
	for _, s := range spans {
		if s.Name == "serve.roundtrip" && s.Tag == "hit" {
			if h, ok := handler[s.Job]; ok {
				hs = append(hs, h)
				https = append(https, s.ms()-h)
			}
		}
	}
	m.set("serve.handler_ms", median(hs))
	m.set("serve.http_ms", median(https))

	return sm.replay(ctx, m)
}

// templateTimes are the per-layer timings of one template's replay.
type templateTimes struct {
	decode, inline, open, key, planNew, submit, wait, encode, build, sweep float64
	observers                                                              map[string]float64
}

// replay calls the layers' exported entry points on every template's
// request body, against a separate queue so the served one's caches and
// counters stay untouched.
func (sm *serveMix) replay(ctx context.Context, m metricSet) error {
	q := serve.NewQueue(serve.QueueConfig{StreamRoot: sm.dir})
	defer q.Close()
	clocks := newClocks(snapshotMetricNames...)
	var decode, inlineMs, open, key, planNew, submit, wait, encode, build, sweepMs []float64
	busy := map[string][]float64{}
	for t := range sm.templates {
		tt, err := sm.replayTemplate(ctx, q, t, clocks)
		if err != nil {
			return fmt.Errorf("template %d: %w", t, err)
		}
		decode = append(decode, tt.decode)
		if sm.templates[t].inline {
			inlineMs = append(inlineMs, tt.inline)
		} else {
			open = append(open, tt.open)
		}
		key = append(key, tt.key)
		planNew = append(planNew, tt.planNew)
		submit = append(submit, tt.submit)
		wait = append(wait, tt.wait)
		encode = append(encode, tt.encode)
		build = append(build, tt.build)
		sweepMs = append(sweepMs, tt.sweep)
		for name, v := range tt.observers {
			busy[name] = append(busy[name], v)
		}
	}
	m.set("serve.decode_ms", median(decode))
	m.set("ingest.inline_ms", median(inlineMs))
	m.set("ingest.open_ms", median(open))
	m.set("serve.key_ms", median(key))
	m.set("plan.new_ms", median(planNew))
	m.set("serve.submit_ms", median(submit))
	m.set("serve.wait_ms", median(wait))
	m.set("serve.encode_ms", median(encode))
	m.set("engine.csr_build_ms", median(build))
	m.set("engine.sweep_ms", median(sweepMs))
	for name, xs := range busy {
		m.set("observers."+name+"_ms", median(xs))
	}
	setEngineSpans(m, sm.t.snapshot())
	return nil
}

func (sm *serveMix) replayTemplate(ctx context.Context, q *serve.Queue, t int, clocks map[string]*observerClock) (templateTimes, error) {
	var tt templateTimes
	tpl := &sm.templates[t]
	body, err := sm.body(t, 0)
	if err != nil {
		return tt, err
	}
	var spec *repro.PlanSpec
	if tt.decode, err = timeIt(3, func() error {
		var err error
		spec, err = serve.DecodePlan(body)
		return err
	}); err != nil {
		return tt, err
	}
	res := sm.resolved(spec)

	var streamID string
	var src sweep.StreamSource
	if tpl.inline {
		var s *repro.Stream
		if tt.inline, err = timeIt(3, func() error {
			var err error
			s, err = spec.InlineStream()
			streamID = serve.InlineHash(spec.Inline)
			return err
		}); err != nil {
			return tt, err
		}
		src = s
	} else {
		if tt.open, err = openTimed(res.Stream.Path, 3); err != nil {
			return tt, err
		}
		col, err := linkstream.OpenMapped(res.Stream.Path)
		if err != nil {
			return tt, err
		}
		defer col.Close()
		streamID = "columnar:" + col.HeaderHash()
		src = col
	}
	if tt.key, err = timeIt(3, func() error {
		_, err := serve.SpecKey(spec, streamID)
		return err
	}); err != nil {
		return tt, err
	}
	if tt.planNew, err = timeIt(3, func() error {
		plan, err := res.NewPlan()
		if err != nil {
			return err
		}
		return plan.Close()
	}); err != nil {
		return tt, err
	}

	start := time.Now()
	job, err := q.Submit(ctx, spec, serve.SubmitOptions{Attached: true})
	if err != nil {
		return tt, err
	}
	submitted := time.Now()
	rep, err := job.Wait(ctx)
	if err != nil {
		return tt, err
	}
	waited := time.Now()
	data, err := serve.EncodeReport(rep)
	if err != nil {
		return tt, err
	}
	encoded := time.Now()
	if !bytes.Equal(data, tpl.ref) {
		return tt, errors.New("replayed report differs from the reference")
	}
	tt.submit, tt.wait, tt.encode = msOf(submitted.Sub(start)), msOf(waited.Sub(submitted)), msOf(encoded.Sub(waited))

	// The engine's stages on the same spec, through the plan's progress
	// events.
	jt := sm.t.newJob()
	var log progressLog
	plan, err := res.NewPlan(repro.WithProgress(log.record))
	if err != nil {
		return tt, err
	}
	runStart := time.Now()
	rep, err = plan.Run(ctx)
	runEnd := time.Now()
	plan.Close()
	if err != nil {
		return tt, err
	}
	_, deltas := engineSpans(jt, 0, runStart, runEnd, log.events())
	jt.end("replay")
	if tt.build, tt.sweep, err = csrSweep(src, false, []scope{{deltas: distinct(deltas)}}); err != nil {
		return tt, err
	}

	// Observer replay: the spec's snapshot observers, in the plan's
	// (enum) order, behind timing shims.
	var obs []sweep.Observer
	var names []string
	for _, name := range snapshotMetricNames {
		if !hasName(spec.Metrics, name) {
			continue
		}
		clocks[name].busy.Store(0)
		names = append(names, name)
		switch name {
		case "degree":
			obs = append(obs, metrics.NewDegreeObserver())
		case "components":
			obs = append(obs, metrics.NewComponentsObserver())
		case "weighted":
			obs = append(obs, metrics.NewWeightedObserver())
		}
	}
	grid := repro.LogGrid(resolution(src), duration(src), spec.GridPoints)
	rs, err := replayPass(ctx, src, false, []sweep.SegmentObserver{{Grid: grid, Observers: obs}}, clocks, [][]string{names})
	if err != nil {
		return tt, err
	}
	if want := rep.EngineStats(); !sameCounters(rs, want) {
		return tt, fmt.Errorf("observer replay counters %+v differ from the run's %+v", rs, want)
	}
	tt.observers = map[string]float64{}
	for _, name := range names {
		tt.observers[name] = clocks[name].ms()
	}
	return tt, nil
}

func hasName(names []string, want string) bool {
	for _, n := range names {
		if n == want {
			return true
		}
	}
	return false
}

// resolution and duration derive a source's default grid bounds exactly
// as NewAnalysis does.
func resolution(src sweep.StreamSource) int64 {
	switch s := src.(type) {
	case *linkstream.Columnar:
		return s.Resolution()
	case *linkstream.Stream:
		return s.Resolution()
	}
	return 1
}

func duration(src sweep.StreamSource) int64 {
	switch s := src.(type) {
	case *linkstream.Columnar:
		return s.Duration()
	case *linkstream.Stream:
		return s.Duration()
	}
	return 0
}
