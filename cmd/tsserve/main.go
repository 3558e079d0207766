// Command tsserve serves the plan/run lifecycle over HTTP:
// analysis-as-a-service for the saturation-scale method. Clients POST
// versioned plan-spec envelopes (the internal/serve codec); the server
// validates the spec, resolves its stream reference under -stream-root
// (or materialises inline events), dedups it against completed and
// in-flight work, and runs it through the same engine tsscale uses —
// results are byte-identical to a local run of the same plan.
//
// Usage:
//
//	tsserve -stream-root /var/lib/streams [-addr localhost:7487]
//
// Endpoints (see internal/serve):
//
//	POST   /v1/jobs[?wait=1]    submit a plan spec (202 detached, 200 report attached)
//	GET    /v1/jobs/{id}        job status
//	GET    /v1/jobs/{id}/result the report envelope
//	GET    /v1/jobs/{id}/events SSE progress stream
//	DELETE /v1/jobs/{id}        cancel
//	GET    /v1/stats            queue counters
//
// Coinciding submits — same stream fingerprint, same result-affecting
// knobs — cost one engine run: later ones coalesce onto the in-flight
// run or hit the result cache. Execution hints (workers, in-flight
// budget) never split the cache, because the engine pins results
// bit-identical across them.
//
// Distributed execution builds on the same process in two roles:
//
//	tsserve -coordinator -stream-root /streams            # coordinator
//	tsserve -stream-root /streams -join http://coord:7487 # worker
//
// A coordinator partitions each POSTed job's (window, ∆) space into
// shard specs, dispatches them to registered workers over POST
// /v1/shards, and folds the partials in lane order — the report is
// byte-identical to a local run, with per-shard timeouts, retry across
// workers and local fallback absorbing worker faults. A worker is an
// ordinary tsserve plus a registration heartbeat (-join); shards ride
// its normal queue, cache included.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/cli"
	"repro/internal/distrib"
	"repro/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "tsserve:", err)
		os.Exit(1)
	}
}

func run(args []string, logw *os.File) error {
	fs := flag.NewFlagSet("tsserve", flag.ContinueOnError)
	f := cli.BindServe(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if f.StreamRoot != "" {
		if st, err := os.Stat(f.StreamRoot); err != nil {
			return fmt.Errorf("-stream-root: %w", err)
		} else if !st.IsDir() {
			return fmt.Errorf("-stream-root: %s is not a directory", f.StreamRoot)
		}
	}

	if f.Coordinator && f.Join != "" {
		return errors.New("-coordinator and -join are mutually exclusive: a process is either the coordinator or a worker")
	}

	var handler http.Handler
	if f.Coordinator {
		handler = distrib.NewCoordinator(distrib.Config{
			StreamRoot:   f.StreamRoot,
			Shards:       f.Shards,
			ShardTimeout: f.ShardTimeout,
			Retries:      f.ShardRetries,
			Workers:      f.Workers,
			MaxInFlight:  f.MaxInFlight,
		}).Handler()
	} else {
		queue := serve.NewQueue(serve.QueueConfig{
			MaxJobs:            f.MaxJobs,
			TenantBudget:       f.TenantBudget,
			CacheEntries:       f.CacheEntries,
			StreamRoot:         f.StreamRoot,
			DefaultWorkers:     f.Workers,
			DefaultMaxInFlight: f.MaxInFlight,
		})
		defer queue.Close()
		handler = serve.NewServer(queue)
	}

	ln, err := net.Listen("tcp", f.Addr)
	if err != nil {
		return err
	}
	role := "tsserve"
	if f.Coordinator {
		role = "tsserve coordinator"
	}
	fmt.Fprintf(logw, "%s: listening on http://%s (stream root: %s)\n", role, ln.Addr(), rootLabel(f.StreamRoot))

	srv := &http.Server{Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if f.Join != "" {
		advertise := f.Advertise
		if advertise == "" {
			advertise = "http://" + ln.Addr().String()
		}
		name := f.Name
		if name == "" {
			name = advertise
		}
		fmt.Fprintf(logw, "tsserve: joining coordinator %s as %q (advertising %s)\n", f.Join, name, advertise)
		go distrib.JoinLoop(ctx, nil, f.Join, name, advertise, 0)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		fmt.Fprintln(logw, "tsserve: shutting down")
		// In-flight attached requests get their context cancelled by
		// Shutdown's deadline-less drain plus the queue Close above.
		if err := srv.Shutdown(context.Background()); err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}

func rootLabel(root string) string {
	if root == "" {
		return "none — inline specs only"
	}
	return root
}
