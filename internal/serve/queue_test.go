package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/linkstream"
	"repro/internal/sweep"
	"repro/internal/synth"
	"repro/internal/temporal"
)

// inlineWorkload returns a deterministic synthetic stream as inline
// events — the spec payload of most queue tests.
func inlineWorkload(t testing.TB, seed int64) []repro.InlineEvent {
	t.Helper()
	s, err := synth.TimeUniform(synth.TimeUniformConfig{
		Nodes: 12, LinksPerPair: 6, T: 20_000, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	evs := make([]repro.InlineEvent, 0, s.NumEvents())
	for _, e := range s.Events() {
		evs = append(evs, repro.InlineEvent{U: s.NodeName(e.U), V: s.NodeName(e.V), T: e.T})
	}
	return evs
}

func smallSpec(t testing.TB, seed int64) *repro.PlanSpec {
	return &repro.PlanSpec{
		Inline:     inlineWorkload(t, seed),
		GridPoints: 6,
	}
}

// waitGoroutines polls the goroutine count back down to the baseline
// captured before the queue ran; a stuck count is a leaked worker,
// lease watcher or SSE pump.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine count stuck above baseline %d:\n%s", baseline, buf[:n])
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
}

// assertArenaBalance asserts every pooled buffer handed out since the
// last resets went back: trip lanes and CSR arenas both — the queue's
// cancellation paths must unwind through the engine's recycling.
func assertArenaBalance(t *testing.T, stage string) {
	t.Helper()
	handed, recycled := temporal.TripLaneStats()
	if handed != recycled {
		t.Fatalf("%s: %d trip lanes handed out but %d recycled — pool leak", stage, handed, recycled)
	}
	aHanded, aRecycled, _ := temporal.ArenaStats()
	if aHanded != aRecycled {
		t.Fatalf("%s: %d CSR arenas handed out but %d recycled — arena leak", stage, aHanded, aRecycled)
	}
}

// TestQueueCoincidingSubmits is the dedup pin: N concurrent submits of
// the same result identity — with randomly differing execution knobs,
// which must not split the key — cost exactly one engine run; every
// other submit coalesces or hits the cache, and all N report the same
// result.
func TestQueueCoincidingSubmits(t *testing.T) {
	sweep.ResetBuildStats()
	q := NewQueue(QueueConfig{})
	defer q.Close()

	const n = 8
	rng := rand.New(rand.NewSource(7))
	specs := make([]*repro.PlanSpec, n)
	for i := range specs {
		s := smallSpec(t, 3)
		// Execution knobs must not split the cache key.
		s.Workers = 1 + rng.Intn(3)
		s.MaxInFlight = rng.Intn(3)
		specs[i] = s
	}

	runsBefore := sweep.RunCount()
	var wg sync.WaitGroup
	reports := make([]*repro.Report, n)
	errs := make([]error, n)
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			job, err := q.Submit(context.Background(), specs[i], SubmitOptions{})
			if err != nil {
				errs[i] = err
				return
			}
			reports[i], errs[i] = job.Wait(context.Background())
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}

	if got := sweep.RunCount() - runsBefore; got != 1 {
		t.Fatalf("engine ran %d times for %d coinciding submits, want exactly 1", got, n)
	}
	st := q.Stats()
	if st.Submitted != n {
		t.Fatalf("Submitted = %d, want %d", st.Submitted, n)
	}
	if st.RunCount != 1 {
		t.Fatalf("queue RunCount = %d, want 1", st.RunCount)
	}
	if st.CacheHits+st.Coalesced != n-1 {
		t.Fatalf("CacheHits(%d) + Coalesced(%d) = %d, want %d deduped submits",
			st.CacheHits, st.Coalesced, st.CacheHits+st.Coalesced, n-1)
	}

	want, err := serveReportBytes(reports[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		got, err := serveReportBytes(reports[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("submit %d saw a different report than submit 0", i)
		}
	}
}

func serveReportBytes(rep *repro.Report) ([]byte, error) {
	if rep == nil {
		return nil, errors.New("nil report")
	}
	return EncodeReport(rep)
}

// TestQueueCacheHitAfterCompletion pins the second half of the
// acceptance criterion: once a run completed, a coinciding submit is
// served from cache with zero additional engine runs.
func TestQueueCacheHitAfterCompletion(t *testing.T) {
	sweep.ResetBuildStats()
	q := NewQueue(QueueConfig{})
	defer q.Close()

	job1, err := q.Submit(context.Background(), smallSpec(t, 5), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep1, err := job1.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	runsAfterFirst := sweep.RunCount()

	job2, err := q.Submit(context.Background(), smallSpec(t, 5), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !job2.CacheHit {
		t.Fatal("second coinciding submit was not a cache hit")
	}
	if job2.State() != StateDone {
		t.Fatalf("cache-hit job state = %s, want done", job2.State())
	}
	rep2, err := job2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sweep.RunCount() != runsAfterFirst {
		t.Fatal("cache hit triggered an engine run")
	}
	b1, _ := EncodeReport(rep1)
	b2, _ := EncodeReport(rep2)
	if string(b1) != string(b2) {
		t.Fatal("cached report differs from the original")
	}
	if st := q.Stats(); st.CacheHits != 1 || st.RunCount != 1 {
		t.Fatalf("stats = %+v, want CacheHits 1, RunCount 1", st)
	}
}

// TestQueueCacheEvictsLeastRecentlyUsed pins the cache's eviction
// order: a hit makes its result the newest, so a full cache drops the
// result least recently used, not the one that completed first.
func TestQueueCacheEvictsLeastRecentlyUsed(t *testing.T) {
	q := NewQueue(QueueConfig{CacheEntries: 2})
	defer q.Close()
	ctx := context.Background()
	submit := func(seed int64, wantHit bool) {
		t.Helper()
		job, err := q.Submit(ctx, smallSpec(t, seed), SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := job.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		if job.CacheHit != wantHit {
			t.Fatalf("spec %d: cache hit %v, want %v", seed, job.CacheHit, wantHit)
		}
	}
	const a, b, c = 11, 12, 13
	submit(a, false)
	submit(b, false)
	submit(a, true)
	submit(c, false) // evicts b, the least recently used
	submit(a, true)
	submit(b, false)
	if g := q.Gauges(); g.CachedResults != 2 {
		t.Fatalf("%d cached results, want 2", g.CachedResults)
	}
}

// TestQueueAttachedDisconnectCancels pins the disconnect path: an
// attached submit whose client goes away mid-run gets its run
// cancelled, leaks no goroutines and recycles every pooled buffer.
func TestQueueAttachedDisconnectCancels(t *testing.T) {
	temporal.ResetTripLaneStats()
	temporal.ResetArenaStats()
	baseline := runtime.NumGoroutine()

	q := NewQueue(QueueConfig{})
	// The run must still be executing when the client disconnects; the
	// finest grid with elongation leaves it thousands of periods to go
	// after its first progress event, so the disconnect always lands
	// mid-run and only the cancellation ends it early.
	spec := smallSpec(t, 9)
	spec.GridPoints = repro.MaxGridPoints
	spec.Refine = 6
	spec.Metrics = []string{"occupancy", "elongation"}
	spec.MaxInFlight = 1
	spec.Workers = 2

	ctx, disconnect := context.WithCancel(context.Background())
	job, err := q.Submit(ctx, spec, SubmitOptions{Attached: true})
	if err != nil {
		t.Fatal(err)
	}
	// Let the run make some progress, then drop the only client.
	deadline := time.Now().Add(5 * time.Second)
	for {
		evs, _, finished := job.Progress(0)
		if len(evs) > 0 {
			break
		}
		if finished || time.Now().After(deadline) {
			t.Fatalf("run finished or timed out before emitting progress (state %s)", job.State())
		}
		time.Sleep(time.Millisecond)
	}
	disconnect()

	select {
	case <-job.Done():
	case <-time.After(5 * time.Second):
		t.Fatalf("run did not stop after its only client disconnected (state %s)", job.State())
	}
	if got := job.State(); got != StateCanceled {
		t.Fatalf("state = %s after disconnect, want canceled", got)
	}
	if err := job.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("job error = %v, want context.Canceled", err)
	}

	q.Close()
	waitGoroutines(t, baseline)
	assertArenaBalance(t, "after disconnect")
	if st := q.Stats(); st.RunsCanceled != 1 {
		t.Fatalf("RunsCanceled = %d, want 1", st.RunsCanceled)
	}
}

// TestQueueDetachedSurvivesDisconnect: a detached submit pins its run —
// the submitter's context ending must not cancel it.
func TestQueueDetachedSurvivesDisconnect(t *testing.T) {
	q := NewQueue(QueueConfig{})
	defer q.Close()

	ctx, cancel := context.WithCancel(context.Background())
	job, err := q.Submit(ctx, smallSpec(t, 13), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cancel() // detached: must not matter
	select {
	case <-job.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("detached run did not finish")
	}
	if got := job.State(); got != StateDone {
		t.Fatalf("state = %s, want done (err %v)", got, job.Err())
	}
}

// TestQueueRandomizedChurn is the randomized concurrency pin, meant
// for -race: a few result identities, many concurrent submitters, a
// random mix of attached/detached and early disconnects. Whatever the
// interleaving: no goroutine leaks, all pooled buffers recycled, and
// every detached job reaches a terminal state with a report.
func TestQueueRandomizedChurn(t *testing.T) {
	temporal.ResetTripLaneStats()
	temporal.ResetArenaStats()
	baseline := runtime.NumGoroutine()

	q := NewQueue(QueueConfig{TenantBudget: 2})
	seeds := []int64{21, 22, 23}
	const submitters = 24
	rng := rand.New(rand.NewSource(99))
	type plan struct {
		seed       int64
		attached   bool
		disconnect bool
		tenant     string
	}
	plans := make([]plan, submitters)
	for i := range plans {
		plans[i] = plan{
			seed:       seeds[rng.Intn(len(seeds))],
			attached:   rng.Intn(2) == 0,
			disconnect: rng.Intn(3) == 0,
			tenant:     []string{"", "acme", "umbrella"}[rng.Intn(3)],
		}
	}

	var wg sync.WaitGroup
	for i, p := range plans {
		wg.Add(1)
		go func(i int, p plan) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			spec := smallSpec(t, p.seed)
			job, err := q.Submit(ctx, spec, SubmitOptions{Tenant: p.tenant, Attached: p.attached})
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			if p.disconnect {
				cancel()
				return
			}
			if _, err := job.Wait(ctx); err != nil && !errors.Is(err, context.Canceled) {
				t.Errorf("submit %d wait: %v", i, err)
			}
		}(i, p)
	}
	wg.Wait()
	q.Close()

	waitGoroutines(t, baseline)
	assertArenaBalance(t, "after churn")
	st := q.Stats()
	if st.Submitted != submitters {
		t.Fatalf("Submitted = %d, want %d", st.Submitted, submitters)
	}
	if st.RunCount > st.Submitted-st.CacheHits-st.Coalesced {
		t.Fatalf("RunCount %d exceeds deduped submissions (%d - %d - %d)",
			st.RunCount, st.Submitted, st.CacheHits, st.Coalesced)
	}
	if st.RunsDone+st.RunsFailed+st.RunsCanceled != st.RunCount {
		t.Fatalf("terminal states (%d+%d+%d) do not partition RunCount %d",
			st.RunsDone, st.RunsFailed, st.RunsCanceled, st.RunCount)
	}
}

// TestQueueTenantBudget: one tenant's runs execute at most
// TenantBudget at a time, while another tenant still gets slots.
func TestQueueTenantBudget(t *testing.T) {
	q := NewQueue(QueueConfig{TenantBudget: 1})
	defer q.Close()

	// Distinct specs (different grids) so nothing dedups.
	var jobs []*Job
	for i := 0; i < 3; i++ {
		spec := smallSpec(t, 31)
		spec.GridPoints = 5 + i
		job, err := q.Submit(context.Background(), spec, SubmitOptions{Tenant: "acme"})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	otherSpec := smallSpec(t, 33)
	other, err := q.Submit(context.Background(), otherSpec, SubmitOptions{Tenant: "umbrella"})
	if err != nil {
		t.Fatal(err)
	}
	for i, job := range append(jobs, other) {
		if _, err := job.Wait(context.Background()); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if st := q.Stats(); st.RunCount != 4 {
		t.Fatalf("RunCount = %d, want 4 distinct runs", st.RunCount)
	}
}

// TestQueueTenantTableDrains: a tenant's budget entry goes with its
// last unfinished run, so clients varying X-Tenant cannot grow the
// table, and it stays, the same budget, while any run remains.
func TestQueueTenantTableDrains(t *testing.T) {
	q := NewQueue(QueueConfig{TenantBudget: 1})
	defer q.Close()
	ctx := context.Background()
	tenants := func() int {
		q.mu.Lock()
		defer q.mu.Unlock()
		return len(q.tenants)
	}

	// Distinct streams, so every submit is a run of its own tenant.
	jobs := make([]*Job, 32)
	for i := range jobs {
		var err error
		jobs[i], err = q.Submit(ctx, smallSpec(t, int64(500+i)), SubmitOptions{Tenant: fmt.Sprintf("tenant-%d", i)})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, j := range jobs {
		if _, err := j.Wait(ctx); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if n := tenants(); n != 0 {
		t.Fatalf("%d tenant entries after every run finished, want 0", n)
	}

	// Tenant "held" has one budget slot, taken here, and two queued
	// runs. The first is cancelled; the second still needs the same
	// budget, so a third submit must queue behind it, not get a fresh
	// slot.
	slot := make(chan struct{}, 1)
	slot <- struct{}{}
	held := &tenantBudget{name: "held", sem: slot}
	q.mu.Lock()
	q.tenants["held"] = held
	q.mu.Unlock()
	var queued []*Job
	for _, seed := range []int64{601, 602, 603} {
		if len(queued) == 2 {
			queued[0].Cancel()
			<-queued[0].Done()
		}
		j, err := q.Submit(ctx, smallSpec(t, seed), SubmitOptions{Tenant: "held"})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, j)
	}
	q.mu.Lock()
	b, runs := q.tenants["held"], held.runs
	q.mu.Unlock()
	if b != held || runs != 2 {
		t.Fatalf("after one of three runs finished: entry kept %v with %d runs, want true with 2", b == held, runs)
	}
	if s := queued[0].State(); s != StateCanceled {
		t.Fatalf("cancelled run state %s", s)
	}
	<-slot
	for _, j := range queued[1:] {
		if _, err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if n := tenants(); n != 0 {
		t.Fatalf("%d tenant entries after the held runs finished, want 0", n)
	}
}

// TestQueueAdmissionBound: submits past MaxJobs fail with ErrQueueFull.
func TestQueueAdmissionBound(t *testing.T) {
	q := NewQueue(QueueConfig{MaxJobs: 1, TenantBudget: 1})
	defer q.Close()

	// The first run must still be executing when the second submit is
	// admitted; a fine grid with elongation keeps it busy for far longer
	// than the second submit's plan build takes.
	spec := smallSpec(t, 41)
	spec.GridPoints = 256
	spec.Refine = 6
	spec.Metrics = []string{"occupancy", "elongation"}
	job, err := q.Submit(context.Background(), spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	over := smallSpec(t, 43)
	if _, err := q.Submit(context.Background(), over, SubmitOptions{}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-admission error = %v, want ErrQueueFull", err)
	}
	if st := q.Stats(); st.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", st.Rejected)
	}
	// The bound is on unfinished runs: once the first completes, the
	// slot frees.
	if _, err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(context.Background(), over, SubmitOptions{}); err != nil {
		t.Fatalf("submit after slot freed: %v", err)
	}
}

// TestQueueStreamRootConfinement: refs resolve under StreamRoot only —
// escapes and refs against a root-less queue are rejected, and a ref
// whose fingerprint no longer matches the file is refused with
// ErrStreamChanged.
func TestQueueStreamRootConfinement(t *testing.T) {
	root := t.TempDir()

	// Build a columnar file under the root.
	s, err := synth.TimeUniform(synth.TimeUniformConfig{Nodes: 10, LinksPerPair: 5, T: 10_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	lsc := filepath.Join(root, "streams", "a.lsc")
	if err := os.MkdirAll(filepath.Dir(lsc), 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(lsc)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteColumnar(f, linkstream.ColumnarOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	q := NewQueue(QueueConfig{StreamRoot: root})
	defer q.Close()

	job, err := q.Submit(context.Background(), &repro.PlanSpec{
		Stream:     &repro.StreamRef{Path: "streams/a.lsc"},
		GridPoints: 5,
	}, SubmitOptions{})
	if err != nil {
		t.Fatalf("in-root ref: %v", err)
	}
	if _, err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Escapes and absolutes are confined by path cleaning: they either
	// resolve inside the root (and miss) or error — never outside it.
	for _, p := range []string{"../" + filepath.Base(root) + "/streams/a.lsc", "/etc/passwd", "streams/../../escape"} {
		if _, err := q.Submit(context.Background(), &repro.PlanSpec{
			Stream: &repro.StreamRef{Path: p},
		}, SubmitOptions{}); err == nil {
			t.Fatalf("ref %q was accepted", p)
		}
	}

	// A root-less queue serves inline specs only.
	q2 := NewQueue(QueueConfig{})
	defer q2.Close()
	if _, err := q2.Submit(context.Background(), &repro.PlanSpec{
		Stream: &repro.StreamRef{Path: "streams/a.lsc"},
	}, SubmitOptions{}); !errors.Is(err, ErrStreamRef) {
		t.Fatalf("root-less ref error = %v, want ErrStreamRef", err)
	}

	// Fingerprint mismatch: a ref built against different content.
	if _, err := q.Submit(context.Background(), &repro.PlanSpec{
		Stream: &repro.StreamRef{Path: "streams/a.lsc", Hash: "0000000000000000"},
	}, SubmitOptions{}); !errors.Is(err, ErrStreamChanged) {
		t.Fatalf("mismatched fingerprint error = %v, want ErrStreamChanged", err)
	}
}

// TestQueueEvictsOldestFinishedJobs: the queue keeps the records of the
// maxFinishedJobs jobs that finished last and drops older-finished ones
// first; an unfinished job is never dropped however old it is, and an
// evicted ID answers 404.
func TestQueueEvictsOldestFinishedJobs(t *testing.T) {
	ts, q := testServer(t, QueueConfig{})
	ctx := context.Background()
	alive := func(j *Job) bool {
		_, ok := q.Job(j.ID)
		return ok
	}

	// Tenant "held" has one budget slot, taken here: its run stays
	// queued, unfinished, until the test frees the slot.
	slot := make(chan struct{}, 1)
	slot <- struct{}{}
	q.mu.Lock()
	q.tenants["held"] = &tenantBudget{name: "held", sem: slot}
	q.mu.Unlock()
	held, err := q.Submit(ctx, smallSpec(t, 101), SubmitOptions{Tenant: "held"})
	if err != nil {
		t.Fatal(err)
	}

	spec := smallSpec(t, 103)
	first, err := q.Submit(ctx, spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	hits := make([]*Job, maxFinishedJobs)
	for i := range hits {
		if hits[i], err = q.Submit(ctx, spec, SubmitOptions{}); err != nil {
			t.Fatal(err)
		}
		if !hits[i].CacheHit {
			t.Fatalf("submit %d was not a cache hit", i)
		}
	}
	// maxFinishedJobs+1 finished jobs: only the first to finish is gone.
	if alive(first) || !alive(hits[0]) || !alive(hits[len(hits)-1]) {
		t.Fatalf("after %d finished jobs: first kept %v, oldest hit kept %v, newest hit kept %v; want false, true, true",
			maxFinishedJobs+1, alive(first), alive(hits[0]), alive(hits[len(hits)-1]))
	}
	if !alive(held) {
		t.Fatal("an unfinished job was evicted")
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + first.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET of an evicted job: status %d, want 404", resp.StatusCode)
	}

	// The held job, submitted first, finishes last: it outlives every
	// record that finished before it.
	<-slot
	if _, err := held.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if alive(hits[0]) || !alive(hits[1]) || !alive(held) {
		t.Fatalf("after the held job finished: oldest hit kept %v, next hit kept %v, held kept %v; want false, true, true",
			alive(hits[0]), alive(hits[1]), alive(held))
	}
	for i := 0; i < maxFinishedJobs-1; i++ {
		if _, err := q.Submit(ctx, spec, SubmitOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if alive(hits[len(hits)-1]) || !alive(held) {
		t.Fatalf("after %d more hits: newest old hit kept %v, held kept %v; want false, true",
			maxFinishedJobs-1, alive(hits[len(hits)-1]), alive(held))
	}
	if _, err := q.Submit(ctx, spec, SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	if alive(held) {
		t.Fatal("the held job outlived maxFinishedJobs later-finished jobs")
	}
}

// TestQueueSubmitAfterClose: Close drains and further submits fail.
func TestQueueSubmitAfterClose(t *testing.T) {
	q := NewQueue(QueueConfig{})
	q.Close()
	if _, err := q.Submit(context.Background(), smallSpec(t, 51), SubmitOptions{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestQueueInvalidSpecs: validation happens at submit time, before any
// job exists.
func TestQueueInvalidSpecs(t *testing.T) {
	q := NewQueue(QueueConfig{})
	defer q.Close()
	cases := map[string]*repro.PlanSpec{
		"no stream":        {},
		"both streams":     {Stream: &repro.StreamRef{Path: "x"}, Inline: []repro.InlineEvent{{U: "a", V: "b", T: 1}}},
		"unknown metric":   {Inline: inlineWorkload(t, 3), Metrics: []string{"vibes"}},
		"unknown selector": {Inline: inlineWorkload(t, 3), Selectors: []string{"coin-flip"}},
		"self loop":        {Inline: []repro.InlineEvent{{U: "a", V: "a", T: 1}}},
	}
	for name, spec := range cases {
		if _, err := q.Submit(context.Background(), spec, SubmitOptions{}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if st := q.Stats(); st.RunCount != 0 || st.Submitted != 0 {
		t.Fatalf("invalid specs reached admission: %+v", st)
	}
}

// TestQueueSnapshotMetrics: the snapshot-metric curves flow through
// the serving path untouched — a served report with snapshot metrics
// is byte-identical to the same plan run in-process, and the curves
// are present in the wire form.
func TestQueueSnapshotMetrics(t *testing.T) {
	q := NewQueue(QueueConfig{})
	defer q.Close()

	spec := &repro.PlanSpec{
		Inline:     inlineWorkload(t, 29),
		Metrics:    []string{"occupancy", "degree", "clustering", "components", "coreness", "weighted"},
		GridPoints: 6,
	}
	job, err := q.Submit(context.Background(), spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	served, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(served.Snapshots()); got != 5 {
		t.Fatalf("served report has %d snapshot curves, want 5", got)
	}

	plan, err := spec.NewPlan()
	if err != nil {
		t.Fatal(err)
	}
	local, err := plan.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	a, err := EncodeReport(served)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeReport(local)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("served snapshot-metric report differs from the in-process run")
	}
}
