package distrib

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/serve"
)

// Config shapes a coordinator.
type Config struct {
	// StreamRoot is the directory job stream refs resolve under,
	// confined exactly like a tsserve queue's root (cleaned paths,
	// no ".." escapes). Empty means inline-only jobs.
	StreamRoot string
	// Shards bounds how many chunks each scope's grid splits into;
	// <= 0 tracks the live worker count (at least 2, so even a single
	// worker exercises the fold).
	Shards int
	// ShardTimeout bounds one dispatch attempt; <= 0 selects 60s.
	ShardTimeout time.Duration
	// Retries is how many additional dispatch attempts a shard gets
	// across workers before falling back to a local in-process run;
	// < 0 disables retries, 0 selects 3.
	Retries int
	// Backoff is the first retry's delay, doubling per attempt;
	// <= 0 selects 200ms.
	Backoff time.Duration
	// HeartbeatTTL is how long a worker stays live without a
	// heartbeat; <= 0 selects 15s.
	HeartbeatTTL time.Duration
	// Client is the HTTP client shards ride; nil selects
	// http.DefaultClient. Per-attempt timeouts come from ShardTimeout,
	// not the client.
	Client *http.Client
	// Workers and MaxInFlight fill the execution hints of jobs that
	// leave them 0, exactly like a queue's defaults. They never affect
	// results.
	Workers     int
	MaxInFlight int
}

// Stats counts a coordinator's lifetime activity — the distributed
// mirror of serve.QueueStats, exposed at GET /v1/stats.
type Stats struct {
	// Jobs counts Run invocations.
	Jobs int64 `json:"jobs"`
	// LocalRuns counts jobs executed whole in-process (no live
	// workers, or an adaptive plan that cannot shard).
	LocalRuns int64 `json:"local_runs"`
	// ShardsDispatched counts shard POSTs attempted against workers.
	ShardsDispatched int64 `json:"shards_dispatched"`
	// ShardRetries counts dispatch attempts after a failure.
	ShardRetries int64 `json:"shard_retries"`
	// ShardTimeouts counts attempts that hit ShardTimeout.
	ShardTimeouts int64 `json:"shard_timeouts"`
	// CorruptPartials counts partials rejected by validation
	// (undecodable, wrong lane, wrong shape).
	CorruptPartials int64 `json:"corrupt_partials"`
	// HashRejects counts shards a worker refused with 409 — its
	// stream file diverged from the coordinator's.
	HashRejects int64 `json:"hash_rejects"`
	// LocalShardRuns counts shards that fell back to an in-process
	// run after exhausting retries or workers.
	LocalShardRuns int64 `json:"local_shard_runs"`
}

// Coordinator partitions jobs into shards, dispatches them to live
// workers and folds the partials. The zero retry/timeout/fallback
// machinery guarantees Run converges to the local-run report even when
// every worker misbehaves — fault handling degrades latency, never
// results.
type Coordinator struct {
	cfg Config
	reg *Registry
	rr  atomic.Uint64 // round-robin dispatch cursor

	jobs             atomic.Int64
	localRuns        atomic.Int64
	shardsDispatched atomic.Int64
	shardRetries     atomic.Int64
	shardTimeouts    atomic.Int64
	corruptPartials  atomic.Int64
	hashRejects      atomic.Int64
	localShardRuns   atomic.Int64
}

// NewCoordinator builds a coordinator with an empty registry.
func NewCoordinator(cfg Config) *Coordinator {
	return &Coordinator{cfg: cfg, reg: NewRegistry(cfg.HeartbeatTTL)}
}

// Registry exposes the worker registry (the HTTP handler and tests
// drive it directly).
func (c *Coordinator) Registry() *Registry { return c.reg }

// Stats snapshots the coordinator's lifetime counters.
func (c *Coordinator) Stats() Stats {
	return Stats{
		Jobs:             c.jobs.Load(),
		LocalRuns:        c.localRuns.Load(),
		ShardsDispatched: c.shardsDispatched.Load(),
		ShardRetries:     c.shardRetries.Load(),
		ShardTimeouts:    c.shardTimeouts.Load(),
		CorruptPartials:  c.corruptPartials.Load(),
		HashRejects:      c.hashRejects.Load(),
		LocalShardRuns:   c.localShardRuns.Load(),
	}
}

func (c *Coordinator) client() *http.Client {
	if c.cfg.Client != nil {
		return c.cfg.Client
	}
	return http.DefaultClient
}

func (c *Coordinator) shardTimeout() time.Duration {
	if c.cfg.ShardTimeout > 0 {
		return c.cfg.ShardTimeout
	}
	return 60 * time.Second
}

func (c *Coordinator) retries() int {
	switch {
	case c.cfg.Retries < 0:
		return 0
	case c.cfg.Retries == 0:
		return 3
	}
	return c.cfg.Retries
}

func (c *Coordinator) backoff() time.Duration {
	if c.cfg.Backoff > 0 {
		return c.cfg.Backoff
	}
	return 200 * time.Millisecond
}

func (c *Coordinator) shardCount(liveWorkers int) int {
	if c.cfg.Shards > 0 {
		return c.cfg.Shards
	}
	if liveWorkers < 2 {
		return 2
	}
	return liveWorkers
}

// resolveSpec confines a job's stream ref under the coordinator's
// stream root (mirroring serve.Queue) and applies the execution-hint
// defaults. It returns the spec the coordinator executes — resolved
// path, openable locally — and the submitter's original path, which
// shard dispatches restore so each worker resolves it under its own
// root.
func (c *Coordinator) resolveSpec(spec *repro.PlanSpec) (resolved *repro.PlanSpec, workerPath string, err error) {
	out := *spec
	if out.Workers == 0 {
		out.Workers = c.cfg.Workers
	}
	if out.MaxInFlight == 0 {
		out.MaxInFlight = c.cfg.MaxInFlight
	}
	if spec.Stream == nil {
		return &out, "", nil
	}
	if c.cfg.StreamRoot == "" {
		return nil, "", errors.New("distrib: this coordinator serves no stream root; submit inline events")
	}
	p := spec.Stream.Path
	if p == "" {
		return nil, "", errors.New("distrib: stream ref: empty path")
	}
	clean := path.Clean("/" + p) // forces the ref inside the root
	if clean == "/" {
		return nil, "", fmt.Errorf("distrib: stream ref: path %q resolves to the stream root itself", p)
	}
	ref := *spec.Stream
	ref.Path = c.cfg.StreamRoot + clean
	out.Stream = &ref
	return &out, clean[1:], nil
}

// Run executes one job: partitioned and dispatched across live workers
// when possible, whole in-process otherwise (adaptive plans cannot
// shard; an empty registry has nobody to shard to). The report is
// byte-identical either way.
func (c *Coordinator) Run(ctx context.Context, spec *repro.PlanSpec) (*repro.Report, error) {
	c.jobs.Add(1)
	resolved, workerPath, err := c.resolveSpec(spec)
	if err != nil {
		return nil, err
	}
	live := c.reg.Live()
	if resolved.Adaptive != nil || len(live) == 0 {
		c.localRuns.Add(1)
		plan, err := resolved.NewPlan()
		if err != nil {
			return nil, err
		}
		defer plan.Close()
		return plan.Run(ctx)
	}
	runner := func(ctx context.Context, shard repro.ShardPlan) (*repro.Report, error) {
		return c.runShard(ctx, shard, workerPath)
	}
	return repro.DistributedRun(ctx, resolved, c.shardCount(len(live)), runner)
}

// runShard places one shard: round-robin over live workers, exponential
// backoff between attempts, and — once retries or workers run out — a
// local in-process run, so a shard always converges to its exact
// partial no matter how workers fail.
func (c *Coordinator) runShard(ctx context.Context, shard repro.ShardPlan, workerPath string) (*repro.Report, error) {
	backoff := c.backoff()
	for attempt := 0; attempt <= c.retries(); attempt++ {
		if attempt > 0 {
			c.shardRetries.Add(1)
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			backoff *= 2
		}
		live := c.reg.Live()
		if len(live) == 0 {
			break
		}
		w := live[c.rr.Add(1)%uint64(len(live))]
		rep, err := c.postShard(ctx, w, shard, workerPath)
		if err == nil {
			c.reg.markOK(w.Name)
			return rep, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		c.reg.MarkFail(w.Name)
	}
	c.localShardRuns.Add(1)
	return repro.RunShardLocal(ctx, shard)
}

// postShard is one dispatch attempt: the shard envelope POSTed under
// the attempt timeout, the partial decoded, its lane echo and shape
// verified. Every failure mode maps to a counter so fault tests can
// pin which path fired.
func (c *Coordinator) postShard(ctx context.Context, w Worker, shard repro.ShardPlan, workerPath string) (*repro.Report, error) {
	spec := *shard.Spec
	if spec.Stream != nil && workerPath != "" {
		ref := *spec.Stream
		ref.Path = workerPath // workers resolve under their own root
		spec.Stream = &ref
	}
	body, err := serve.EncodeShard(&serve.Shard{Lane: shard.Lane, Spec: &spec})
	if err != nil {
		return nil, err
	}
	c.shardsDispatched.Add(1)

	attemptCtx, cancel := context.WithTimeout(ctx, c.shardTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(attemptCtx, http.MethodPost, w.URL+"/v1/shards", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client().Do(req)
	if err != nil {
		if attemptCtx.Err() == context.DeadlineExceeded && ctx.Err() == nil {
			c.shardTimeouts.Add(1)
		}
		return nil, fmt.Errorf("distrib: worker %s: %w", w.Name, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		if attemptCtx.Err() == context.DeadlineExceeded && ctx.Err() == nil {
			c.shardTimeouts.Add(1)
		}
		return nil, fmt.Errorf("distrib: worker %s: reading partial: %w", w.Name, err)
	}
	if resp.StatusCode == http.StatusConflict {
		c.hashRejects.Add(1)
		return nil, fmt.Errorf("distrib: worker %s rejected shard lane %d: stream diverged: %s", w.Name, shard.Lane, data)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("distrib: worker %s: shard lane %d: status %d: %s", w.Name, shard.Lane, resp.StatusCode, data)
	}
	partial, err := serve.DecodePartial(data)
	if err != nil {
		c.corruptPartials.Add(1)
		return nil, fmt.Errorf("distrib: worker %s: %w", w.Name, err)
	}
	if partial.Lane != shard.Lane {
		c.corruptPartials.Add(1)
		return nil, fmt.Errorf("distrib: worker %s echoed lane %d for shard lane %d", w.Name, partial.Lane, shard.Lane)
	}
	if err := repro.ValidatePartial(shard, partial.Report); err != nil {
		c.corruptPartials.Add(1)
		return nil, fmt.Errorf("distrib: worker %s: %w", w.Name, err)
	}
	return partial.Report, nil
}
