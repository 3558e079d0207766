package serve

// The job queue: every submitted PlanSpec becomes a Job backed by a
// run — one engine execution of the spec's plan. Runs dedup two ways,
// mirroring what RunWindowed already does within one engine pass:
// a submit whose result key matches a completed run is served from the
// result cache without touching the engine, and one whose key matches
// an in-flight run coalesces onto it — N coinciding submits cost
// exactly one plan.Run however they interleave (the randomized
// concurrency tests pin this under -race).
//
// Lifecycle and cancellation reuse the plan layer's abort paths: every
// run executes under its own context; detached submits pin the run to
// completion, while attached submits hold leases bound to their
// caller's context — when the last lease of an unpinned run is
// released (every interested client disconnected), the run's context
// is cancelled and the engine unwinds through the PR-5 paths: pooled
// buffers recycled, worker pools joined, arenas balanced.

import (
	"container/list"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"path"
	"strings"
	"sync"
	"time"

	"repro"
)

// Queue errors. ErrQueueFull maps to 429 at the HTTP layer, ErrClosed
// to 503, ErrStreamChanged to 409, and ErrStreamRef and validation
// errors to 400.
var (
	// ErrQueueFull is returned when admitting one more run would exceed
	// QueueConfig.MaxJobs.
	ErrQueueFull = errors.New("serve: queue full")
	// ErrClosed is returned by Submit after Close.
	ErrClosed = errors.New("serve: queue closed")
	// ErrStreamRef is wrapped around stream-reference rejections:
	// escaping paths, missing files, refs against a root-less queue.
	ErrStreamRef = errors.New("serve: bad stream ref")
	// ErrStreamChanged is wrapped around fingerprint mismatches: the
	// ref's hash no longer matches the file (409 at the HTTP layer).
	ErrStreamChanged = errors.New("serve: stream changed")
)

// maxFinishedJobs bounds the job records a queue keeps once their runs
// have finished. Past it the oldest-finished record is dropped, and its
// ID answers 404 like one never issued. Unfinished jobs are never
// dropped.
const maxFinishedJobs = 1024

// QueueConfig shapes a queue's budgets and defaults.
type QueueConfig struct {
	// MaxJobs bounds the runs admitted and not yet finished (queued
	// plus executing) across all tenants; <= 0 selects 64. Submits past
	// the bound fail with ErrQueueFull instead of queueing unboundedly.
	MaxJobs int
	// TenantBudget bounds how many runs of one tenant execute
	// concurrently; <= 0 selects 2. Runs past the budget wait their
	// turn in submission order without blocking other tenants.
	TenantBudget int
	// CacheEntries bounds the completed results kept for cache hits;
	// <= 0 selects 128. Eviction drops the least recently used result:
	// a completion or a cache hit makes its entry the newest.
	CacheEntries int
	// StreamRoot is the directory spec stream refs resolve under; refs
	// are rejected when it is empty. Paths are cleaned and confined —
	// absolute paths and ".." escapes fail with ErrStreamRef.
	StreamRoot string
	// DefaultWorkers and DefaultMaxInFlight fill the execution hints of
	// specs that leave them 0 — the server operator's engine budgets.
	// They never affect results, only how fast and how large a run
	// executes.
	DefaultWorkers     int
	DefaultMaxInFlight int
}

func (c QueueConfig) maxJobs() int {
	if c.MaxJobs > 0 {
		return c.MaxJobs
	}
	return 64
}

func (c QueueConfig) tenantBudget() int {
	if c.TenantBudget > 0 {
		return c.TenantBudget
	}
	return 2
}

func (c QueueConfig) cacheEntries() int {
	if c.CacheEntries > 0 {
		return c.CacheEntries
	}
	return 128
}

// JobState is the lifecycle position of a job.
type JobState string

const (
	// StateQueued: admitted, waiting for its tenant's budget.
	StateQueued JobState = "queued"
	// StateRunning: the engine is executing the run.
	StateRunning JobState = "running"
	// StateDone: finished successfully; the result is available.
	StateDone JobState = "done"
	// StateFailed: the run returned an error.
	StateFailed JobState = "failed"
	// StateCanceled: the run's context was cancelled before it could
	// finish — explicitly or because every attached client went away.
	StateCanceled JobState = "canceled"
)

// QueueStats counts a queue's lifetime activity. RunCount is the
// number of engine executions actually started — the number every
// dedup assertion keys on: Submitted - CacheHits - Coalesced bounds
// it from above.
type QueueStats struct {
	Submitted int64 `json:"submitted"`
	// CacheHits served a completed result without any run.
	CacheHits int64 `json:"cache_hits"`
	// Coalesced joined an in-flight run of the same result key.
	Coalesced int64 `json:"coalesced"`
	// Rejected counts submits refused at admission (queue full).
	Rejected int64 `json:"rejected"`
	// RunCount counts engine executions started (plan.Run invocations).
	RunCount int64 `json:"run_count"`
	// RunsDone / RunsFailed / RunsCanceled partition the finished
	// engine executions; a run cancelled before its tenant budget let
	// it start counts in none of them, as in RunCount.
	RunsDone     int64 `json:"runs_done"`
	RunsFailed   int64 `json:"runs_failed"`
	RunsCanceled int64 `json:"runs_canceled"`
}

// QueueGauges is the queue's instantaneous state — the health-check
// counters of /v1/healthz and the "gauges" block of /v1/stats, as
// opposed to QueueStats' lifetime counters.
type QueueGauges struct {
	// Admitted counts unfinished runs (queued plus running).
	Admitted int `json:"admitted"`
	// Queued and Running partition the admitted runs by state.
	Queued  int `json:"queued"`
	Running int `json:"running"`
	// ActiveLeases sums the leases attached clients currently hold.
	ActiveLeases int `json:"active_leases"`
	// CachedResults counts retained completed results.
	CachedResults int `json:"cached_results"`
}

// Gauges snapshots the queue's instantaneous depth. Per-run state is
// read after the queue lock is dropped, so a run finishing mid-snapshot
// can skew a gauge by one — fine for health checks, which is all this
// is for.
func (q *Queue) Gauges() QueueGauges {
	q.mu.Lock()
	runs := make([]*run, 0, len(q.inflight))
	for _, r := range q.inflight {
		runs = append(runs, r)
	}
	g := QueueGauges{Admitted: q.admitted, CachedResults: len(q.cache)}
	q.mu.Unlock()

	for _, r := range runs {
		r.mu.Lock()
		switch r.state {
		case StateQueued:
			g.Queued++
		case StateRunning:
			g.Running++
		}
		g.ActiveLeases += r.leases
		r.mu.Unlock()
	}
	return g
}

// tenantBudget is one tenant's concurrency budget. Its entry in
// Queue.tenants lives exactly as long as the tenant has admitted,
// unfinished runs: Submit adds it for the first and finish deletes it
// with the last, so the table holds at most MaxJobs entries however
// many tenant names clients send.
type tenantBudget struct {
	name string
	sem  chan struct{} // TenantBudget slots; an executing run holds one
	runs int           // admitted, unfinished runs; guarded by Queue.mu
}

// run is one engine execution: the shared backing of every job that
// coalesced onto the same result key.
type run struct {
	key    string
	ctx    context.Context
	cancel context.CancelFunc
	jobs   []string      // IDs of the jobs riding this run; guarded by Queue.mu
	budget *tenantBudget // the admitting tenant's budget; set under Queue.mu

	mu       sync.Mutex
	state    JobState
	leases   int
	pinned   bool // a detached submit rode this run: never auto-cancel
	events   []repro.ProgressEvent
	notify   chan struct{} // closed and replaced on every append
	done     chan struct{} // closed when the run finishes
	report   *repro.Report
	err      error
	runStats repro.EngineStats
}

func newRun(base context.Context, key string) *run {
	ctx, cancel := context.WithCancel(base)
	return &run{
		key:    key,
		ctx:    ctx,
		cancel: cancel,
		state:  StateQueued,
		notify: make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// broadcastLocked wakes every subscriber; callers hold r.mu.
func (r *run) broadcastLocked() {
	close(r.notify)
	r.notify = make(chan struct{})
}

func (r *run) appendEvent(ev repro.ProgressEvent) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.broadcastLocked()
	r.mu.Unlock()
}

// acquire takes a lease keeping an attached run alive.
func (r *run) acquire() {
	r.mu.Lock()
	r.leases++
	r.mu.Unlock()
}

// release drops one lease; the last release of an unpinned, unfinished
// run cancels it — every interested client is gone.
func (r *run) release() {
	r.mu.Lock()
	r.leases--
	cancel := r.leases == 0 && !r.pinned && r.state != StateDone && r.state != StateFailed && r.state != StateCanceled
	r.mu.Unlock()
	if cancel {
		r.cancel()
	}
}

// pin marks the run as owned by at least one detached submit: it runs
// to completion regardless of leases.
func (r *run) pin() {
	r.mu.Lock()
	r.pinned = true
	r.mu.Unlock()
}

// Job is one submit's view of a run. Multiple jobs may share one run
// (coalescing); a cache-hit job has a completed synthetic run.
type Job struct {
	// ID is the job's handle, unique per queue.
	ID string `json:"id"`
	// Tenant is the submitting tenant.
	Tenant string `json:"tenant"`
	// Key is the result key the job deduped under (hex SHA-256; see
	// SpecKey).
	Key string `json:"key"`
	// CacheHit and Coalesced record how the submit was served.
	CacheHit  bool `json:"cache_hit"`
	Coalesced bool `json:"coalesced"`
	// Created is the submit time.
	Created time.Time `json:"created"`

	run *run
}

// State returns the job's lifecycle position.
func (j *Job) State() JobState {
	j.run.mu.Lock()
	defer j.run.mu.Unlock()
	return j.run.state
}

// Done returns a channel closed when the job's run finishes (any
// terminal state).
func (j *Job) Done() <-chan struct{} { return j.run.done }

// Err returns the run's terminal error (nil while unfinished or on
// success).
func (j *Job) Err() error {
	j.run.mu.Lock()
	defer j.run.mu.Unlock()
	return j.run.err
}

// Report returns the run's result and whether it is available yet.
func (j *Job) Report() (*repro.Report, bool) {
	j.run.mu.Lock()
	defer j.run.mu.Unlock()
	return j.run.report, j.run.report != nil
}

// EngineStats returns the run's engine instrumentation (the zero
// stats until the run finishes; cached results report the stats of
// the run that produced them).
func (j *Job) EngineStats() repro.EngineStats {
	j.run.mu.Lock()
	defer j.run.mu.Unlock()
	return j.run.runStats
}

// Progress returns the run's buffered progress events from index from
// on, the channel to wait on for more, and whether the run is
// finished. The returned slice is never written again — subscribers
// may keep it.
func (j *Job) Progress(from int) (evs []repro.ProgressEvent, more <-chan struct{}, finished bool) {
	r := j.run
	r.mu.Lock()
	defer r.mu.Unlock()
	if from < len(r.events) {
		evs = r.events[from:len(r.events):len(r.events)]
	}
	terminal := r.state == StateDone || r.state == StateFailed || r.state == StateCanceled
	return evs, r.notify, terminal
}

// Acquire takes a lease on the job's run, keeping an attached run
// alive while a client watches it; the returned release must be called
// exactly once. Leases are no-ops on pinned (detached) runs.
func (j *Job) Acquire() (release func()) {
	j.run.acquire()
	var once sync.Once
	return func() { once.Do(j.run.release) }
}

// Cancel aborts the job's run explicitly, leases notwithstanding.
func (j *Job) Cancel() { j.run.cancel() }

// Wait blocks until the run finishes or ctx is done, and returns the
// result. Waiting holds a lease, so an attached run does not get
// cancelled out from under its waiter.
func (j *Job) Wait(ctx context.Context) (*repro.Report, error) {
	release := j.Acquire()
	defer release()
	select {
	case <-j.run.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	j.run.mu.Lock()
	defer j.run.mu.Unlock()
	if j.run.err != nil {
		return nil, j.run.err
	}
	return j.run.report, nil
}

// cachedResult is one completed run retained for cache hits.
type cachedResult struct {
	key    string
	report *repro.Report
	stats  repro.EngineStats
}

// SubmitOptions shapes one submit.
type SubmitOptions struct {
	// Tenant attributes the job to a concurrency budget; empty means
	// "default".
	Tenant string
	// Attached ties the run's lifetime to interest: the submit holds a
	// lease bound to ctx, and when the last lease goes (client
	// disconnected, no coalesced watcher left) the run is cancelled.
	// Detached (the default) pins the run to completion and caches its
	// result whether or not anyone is still watching.
	Attached bool
}

// Queue admits, dedups, schedules and caches analysis runs.
type Queue struct {
	cfg QueueConfig

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	jobs     map[string]*Job
	finished []string                 // IDs of finished jobs, oldest first
	inflight map[string]*run          // result key → admitted, unfinished run
	cache    map[string]*list.Element // result key → its *cachedResult in lru
	lru      list.List                // cached results, most recently used first
	tenants  map[string]*tenantBudget // tenants with unfinished runs
	admitted int                      // unfinished runs, all tenants
	stats    QueueStats
	seq      uint64
}

// NewQueue builds an empty queue.
func NewQueue(cfg QueueConfig) *Queue {
	ctx, cancel := context.WithCancel(context.Background())
	return &Queue{
		cfg:        cfg,
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*Job),
		inflight:   make(map[string]*run),
		cache:      make(map[string]*list.Element),
		tenants:    make(map[string]*tenantBudget),
	}
}

// Close cancels every unfinished run and waits for their goroutines to
// unwind through the engine's abort paths.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.baseCancel()
	q.wg.Wait()
}

// Stats returns a snapshot of the queue's lifetime counters.
func (q *Queue) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stats
}

// Job looks a job up by ID. Every unfinished job is found, but of the
// finished ones only the maxFinishedJobs that finished last.
func (q *Queue) Job(id string) (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	return j, ok
}

// resolveStream resolves the spec's stream identity for the result
// key, rewriting a stream ref's path to its confined location under
// StreamRoot. It returns the spec to execute (a copy when rewritten)
// and the stream identity string.
func (q *Queue) resolveStream(spec *repro.PlanSpec) (*repro.PlanSpec, string, error) {
	switch {
	case spec.Stream != nil && len(spec.Inline) > 0:
		return nil, "", fmt.Errorf("%w: stream ref and inline events are mutually exclusive", ErrStreamRef)
	case spec.Stream == nil && len(spec.Inline) == 0:
		return nil, "", fmt.Errorf("%w: no stream: set stream or inline", ErrStreamRef)
	case spec.Stream == nil:
		return spec, InlineHash(spec.Inline), nil
	}
	if q.cfg.StreamRoot == "" {
		return nil, "", fmt.Errorf("%w: this queue serves no stream root; submit inline events", ErrStreamRef)
	}
	p := spec.Stream.Path
	if p == "" {
		return nil, "", fmt.Errorf("%w: empty path", ErrStreamRef)
	}
	clean := path.Clean("/" + p) // forces the ref inside the root
	if clean == "/" {
		return nil, "", fmt.Errorf("%w: path %q resolves to the stream root itself", ErrStreamRef, p)
	}
	resolved := q.cfg.StreamRoot + clean
	out := *spec
	ref := *spec.Stream
	ref.Path = resolved
	out.Stream = &ref
	return &out, "", nil // identity filled after the plan opens the file
}

// buildPlan constructs the run's plan from the resolved spec, applying
// the queue's default execution hints and verifying the stream ref's
// fingerprint against the opened file. It returns the plan and the
// stream identity for the result key.
func (q *Queue) buildPlan(spec *repro.PlanSpec, streamID string, progress func(repro.ProgressEvent)) (*repro.Plan, string, error) {
	exec := *spec
	if exec.Workers == 0 {
		exec.Workers = q.cfg.DefaultWorkers
	}
	if exec.MaxInFlight == 0 {
		exec.MaxInFlight = q.cfg.DefaultMaxInFlight
	}
	var extra []repro.Option
	if progress != nil {
		extra = append(extra, repro.WithProgress(progress))
	}
	plan, err := exec.NewPlan(extra...)
	if err != nil {
		return nil, "", err
	}
	if spec.Stream == nil {
		return plan, streamID, nil
	}
	if ref, ok := plan.StreamRef(); ok {
		if spec.Stream.Hash != "" && spec.Stream.Hash != ref.Hash {
			plan.Close()
			return nil, "", fmt.Errorf("%w: fingerprint mismatch for %q: ref has %.12s…, file has %.12s… (stream changed since the spec was built)",
				ErrStreamChanged, spec.Stream.Path, spec.Stream.Hash, ref.Hash)
		}
		return plan, "columnar:" + ref.Hash, nil
	}
	// Text/LSB files have no cheap fingerprint; their identity is the
	// resolved path. A ref hash against such a file cannot be honoured.
	if spec.Stream.Hash != "" {
		plan.Close()
		return nil, "", fmt.Errorf("%w: %q is not a columnar file; fingerprinted refs need one (run tsconvert)", ErrStreamRef, spec.Stream.Path)
	}
	return plan, "path:" + spec.Stream.Path, nil
}

// Submit admits one spec: served from cache, coalesced onto a
// coinciding in-flight run, or scheduled as a new run under the
// tenant's budget. The spec is validated synchronously — a job is
// returned only for specs that build a valid plan against an existing,
// fingerprint-matching stream.
func (q *Queue) Submit(ctx context.Context, spec *repro.PlanSpec, opts SubmitOptions) (*Job, error) {
	tenant := opts.Tenant
	if tenant == "" {
		tenant = "default"
	}
	resolved, streamID, err := q.resolveStream(spec)
	if err != nil {
		return nil, err
	}

	// Build the plan before admission: submit-time validation, and for
	// file-backed specs the open is what yields the authoritative
	// stream fingerprint. The progress hook routes into whichever run
	// the job ends up with, so it binds after dedup resolution.
	var runRef struct {
		mu sync.Mutex
		r  *run
	}
	plan, streamID, err := q.buildPlan(resolved, streamID, func(ev repro.ProgressEvent) {
		runRef.mu.Lock()
		r := runRef.r
		runRef.mu.Unlock()
		if r != nil {
			r.appendEvent(ev)
		}
	})
	if err != nil {
		return nil, err
	}
	key, err := SpecKey(spec, streamID)
	if err != nil {
		plan.Close()
		return nil, err
	}

	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		plan.Close()
		return nil, ErrClosed
	}
	q.stats.Submitted++

	job := &Job{
		ID:      q.newIDLocked(),
		Tenant:  tenant,
		Key:     key,
		Created: time.Now(),
	}

	// Cache hit: a synthetic, already-done run carries the result.
	if el, ok := q.cache[key]; ok {
		q.lru.MoveToFront(el)
		res := el.Value.(*cachedResult)
		q.stats.CacheHits++
		r := newRun(q.baseCtx, key)
		r.state = StateDone
		r.report = res.report
		r.runStats = res.stats
		close(r.done)
		r.cancel()
		job.CacheHit = true
		job.run = r
		q.jobs[job.ID] = job
		q.retireLocked(job.ID)
		q.mu.Unlock()
		plan.Close()
		return job, nil
	}

	// Coalesce onto a coinciding in-flight run.
	if r, ok := q.inflight[key]; ok {
		q.stats.Coalesced++
		job.Coalesced = true
		job.run = r
		r.jobs = append(r.jobs, job.ID)
		q.jobs[job.ID] = job
		if opts.Attached {
			r.acquire()
			q.watchLease(ctx, r)
		} else {
			r.pin()
		}
		q.mu.Unlock()
		plan.Close()
		return job, nil
	}

	// New run: admission control, then schedule.
	if q.admitted >= q.cfg.maxJobs() {
		q.stats.Rejected++
		q.mu.Unlock()
		plan.Close()
		return nil, fmt.Errorf("%w: %d runs admitted (max %d)", ErrQueueFull, q.admitted, q.cfg.maxJobs())
	}
	r := newRun(q.baseCtx, key)
	runRef.mu.Lock()
	runRef.r = r
	runRef.mu.Unlock()
	if opts.Attached {
		r.acquire()
		q.watchLease(ctx, r)
	} else {
		r.pin()
	}
	job.run = r
	r.jobs = append(r.jobs, job.ID)
	q.jobs[job.ID] = job
	q.inflight[key] = r
	q.admitted++
	b := q.tenants[tenant]
	if b == nil {
		b = &tenantBudget{name: tenant, sem: make(chan struct{}, q.cfg.tenantBudget())}
		q.tenants[tenant] = b
	}
	b.runs++
	r.budget = b
	q.mu.Unlock()

	q.wg.Add(1)
	go q.execute(r, plan, b.sem)
	return job, nil
}

// watchLease releases one lease of r when ctx ends, unless the run
// finishes first. Callers hold the lease being watched.
func (q *Queue) watchLease(ctx context.Context, r *run) {
	q.wg.Add(1)
	go func() {
		defer q.wg.Done()
		select {
		case <-ctx.Done():
			r.release()
		case <-r.done:
			// Run finished; the lease no longer matters. Still release
			// so lease accounting stays balanced.
			r.release()
		}
	}()
}

// execute runs one admitted plan under its tenant's budget and
// publishes the outcome.
func (q *Queue) execute(r *run, plan *repro.Plan, sem chan struct{}) {
	defer q.wg.Done()
	defer plan.Close()

	select {
	case sem <- struct{}{}:
		defer func() { <-sem }()
	case <-r.ctx.Done():
		q.finish(r, nil, r.ctx.Err())
		return
	}

	r.mu.Lock()
	r.state = StateRunning
	r.broadcastLocked()
	r.mu.Unlock()
	q.mu.Lock()
	q.stats.RunCount++
	q.mu.Unlock()

	rep, err := plan.Run(r.ctx)
	q.finish(r, rep, err)
}

// finish records a run's terminal state, retires it from the in-flight
// index, caches successful results and only then wakes the run's
// subscribers, so a waiter released by Done already sees the admission
// slot freed and the result cached.
func (q *Queue) finish(r *run, rep *repro.Report, err error) {
	q.mu.Lock()
	r.mu.Lock()
	started := r.state == StateRunning
	switch {
	case err == nil:
		r.state = StateDone
		r.report = rep
		r.runStats = rep.EngineStats()
	case errors.Is(err, context.Canceled):
		r.state = StateCanceled
		r.err = err
	default:
		r.state = StateFailed
		r.err = err
	}

	delete(q.inflight, r.key)
	q.admitted--
	r.budget.runs--
	if r.budget.runs == 0 {
		// A run that started holds its slot until execute returns, but
		// its engine work is over: a later run of this tenant may take a
		// fresh budget without exceeding it.
		delete(q.tenants, r.budget.name)
	}
	q.retireLocked(r.jobs...)
	r.jobs = nil
	switch {
	case !started:
		// Cancelled while waiting for its tenant budget: no engine
		// execution, so it counts in neither RunCount nor its partition.
	case r.state == StateDone:
		q.stats.RunsDone++
		if _, dup := q.cache[r.key]; !dup {
			q.cache[r.key] = q.lru.PushFront(&cachedResult{key: r.key, report: r.report, stats: r.runStats})
			for q.lru.Len() > q.cfg.cacheEntries() {
				delete(q.cache, q.lru.Remove(q.lru.Back()).(*cachedResult).key)
			}
		}
	case r.state == StateCanceled:
		q.stats.RunsCanceled++
	default:
		q.stats.RunsFailed++
	}

	r.broadcastLocked()
	close(r.done)
	r.mu.Unlock()
	q.mu.Unlock()
	r.cancel()
}

// retireLocked records jobs as finished and drops the oldest-finished
// records past maxFinishedJobs. Callers hold q.mu.
func (q *Queue) retireLocked(ids ...string) {
	q.finished = append(q.finished, ids...)
	for len(q.finished) > maxFinishedJobs {
		delete(q.jobs, q.finished[0])
		q.finished = q.finished[1:]
	}
}

// newIDLocked mints a job ID: random hex with a sequence fallback so
// IDs stay unique even without entropy.
func (q *Queue) newIDLocked() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err == nil {
		id := hex.EncodeToString(b[:])
		if _, taken := q.jobs[id]; !taken {
			return id
		}
	}
	q.seq++
	return fmt.Sprintf("job-%d", q.seq)
}

// TenantOf normalises a tenant header value.
func TenantOf(raw string) string {
	t := strings.TrimSpace(raw)
	if t == "" {
		return "default"
	}
	return t
}
