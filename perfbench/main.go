// Command perfbench is the repository benchmark. One invocation runs one
// workload in one process against the exported API of package repro and
// its internal layers, checks every report it receives against a
// reference computed during set-up, and prints its metrics. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 42, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (set-up time, job
// latency median and tail, throughput, peak RSS); with --trace 1 they
// are the per-layer ones, measured in a separate run that records spans
// around calls into each layer and replays the layers' exported entry
// points on the job's inputs. See README.md for the workloads and the
// metric definitions.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// setupReps is how many times a run builds its workload from scratch;
// setup_s reports the median, and the timed phase uses the last one.
const setupReps = 3

// jobResult is the outcome of one request of the timed phase.
type jobResult struct {
	latency time.Duration
	ok      bool   // the report matched its reference and no failure was counted
	kind    string // "hit", "miss" or "coalesced" where the workload can tell
	traced  bool
}

// workload is one traffic mix. setup builds everything the timed phase
// needs — inputs, services, reference reports, warm-up jobs — and is
// timed as set-up. job issues one request for client c and checks the
// report. layers fills the per-layer metrics of a traced run.
type workload interface {
	setup(ctx context.Context) error
	clients() int
	job(ctx context.Context, c int, tr *jobTrace) jobResult
	layers(ctx context.Context, run *timedRun, out metricSet) error
	close()
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func newWorkload(o options, dir string, t *tracer) (workload, error) {
	switch o.workload {
	case "paper-batch":
		return newPaperBatch(o.seed, dir, t), nil
	case "serve-mix":
		return newServeMix(o.seed, dir, t), nil
	case "distrib-windows":
		return newDistribWindows(o.seed, dir, t), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have paper-batch, serve-mix, distrib-windows)", o.workload)
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: paper-batch, serve-mix or distrib-windows")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs derive from")
	flag.IntVar(&o.seconds, "seconds", 20, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics")
	flag.Parse()
	o.trace = trace == 1
	if o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		os.Exit(2)
	}
	res, err := run(context.Background(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the final JSON line.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64) {
	cur, ok := m[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	cur.Value = v
	m[name] = cur
}

// endToEnd declares the untraced run's metrics.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"job_p50_ms", "ms"},
	{"job_tail_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// timedRun is what the timed phase observed, handed to workload.layers.
type timedRun struct {
	results []jobResult
	elapsed time.Duration
	proc    procDelta
	tracer  *tracer
}

// run measures one workload from the repository root, which is the
// working directory; scratch files go under .bench_build there.
func run(ctx context.Context, o options) (*result, error) {
	if _, err := os.Stat("go.mod"); err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	build, err := filepath.Abs(".bench_build")
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(build, "data-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	tr := newTracer()
	var w workload
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if w != nil {
			w.close()
		}
		sub := filepath.Join(dir, fmt.Sprintf("setup%d", i))
		if err := os.Mkdir(sub, 0o755); err != nil {
			return nil, err
		}
		w, err = newWorkload(o, sub, tr)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := w.setup(ctx); err != nil {
			w.close()
			return nil, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.close()

	// The timed phase starts from a collected heap and a reset RSS
	// high-water mark, so set-up garbage does not count in peak_rss_mb.
	debug.FreeOSMemory()
	rss := startRSSWatch()
	before := sampleProc()
	results, elapsed := timedPhase(ctx, w, o, tr)
	after := sampleProc()
	peak := rss.stop()
	run := &timedRun{results: results, elapsed: elapsed, proc: after.sub(before), tracer: tr}

	attempted, failed := len(results), 0
	if attempted == 0 {
		return nil, errors.New("the timed phase completed no request")
	}
	var all, hits, misses []float64
	for _, r := range results {
		if !r.ok {
			failed++
			continue
		}
		if o.trace && r.traced {
			continue // the untraced half of a traced run stands for the workload
		}
		v := msOf(r.latency)
		all = append(all, v)
		switch r.kind {
		case "hit":
			hits = append(hits, v)
		case "miss":
			misses = append(misses, v)
		}
	}
	// A failed request misses every latency bound: it enters the tail as +Inf.
	lat := append([]float64(nil), all...)
	for i := 0; i < failed; i++ {
		lat = append(lat, inf)
	}
	tailV, tailPct, tailN := tail(lat)
	okJobs := attempted - failed
	errRate := float64(failed) / float64(attempted)

	fmt.Printf("workload %s seed %d seconds %d trace %v\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Printf("  setup_s       %10.4f s   (median of %.4f)\n", median(setups), setups)
	fmt.Printf("  job_p50_ms    %10.3f ms  (n=%d)\n", median(all), len(all))
	fmt.Printf("  job_tail_ms   %10.3f ms  (p%.1f, n=%d)\n", tailV, tailPct, tailN)
	fmt.Printf("  jobs_per_s    %10.4f 1/s\n", float64(okJobs)/elapsed.Seconds())
	fmt.Printf("  hit_p50_ms    %10.3f ms  (n=%d)\n", median(hits), len(hits))
	fmt.Printf("  miss_p50_ms   %10.3f ms  (n=%d)\n", median(misses), len(misses))
	fmt.Printf("  peak_rss_mb   %10.2f MB\n", peak)
	fmt.Printf("  error_rate    %10.4f     (%d of %d)\n", errRate, failed, attempted)

	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metricSet{}}
	if !o.trace {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{Unit: m.unit}
		}
		res.Metrics.set("setup_s", median(setups))
		res.Metrics.set("job_p50_ms", median(all))
		res.Metrics.set("job_tail_ms", tailV)
		res.Metrics.set("jobs_per_s", float64(okJobs)/elapsed.Seconds())
		res.Metrics.set("peak_rss_mb", peak)
		return res, nil
	}

	for _, m := range perLayer {
		res.Metrics[m.name] = metric{Unit: m.unit}
	}
	res.Metrics.set("hit_p50_ms", median(hits))
	res.Metrics.set("miss_p50_ms", median(misses))
	res.Metrics.set("error_rate", errRate)
	var traced, untraced []float64
	for _, r := range results {
		if !r.ok {
			continue
		}
		if r.traced {
			traced = append(traced, msOf(r.latency))
		} else {
			untraced = append(untraced, msOf(r.latency))
		}
	}
	if len(traced) > 0 && len(untraced) > 0 {
		res.Metrics.set("trace.overhead_frac", median(traced)/median(untraced)-1)
	}
	setRuntime(res.Metrics, run.proc, okJobs)
	if err := w.layers(ctx, run, res.Metrics); err != nil {
		return nil, fmt.Errorf("%s per-layer metrics: %w", o.workload, err)
	}
	if err := tr.dump(filepath.Join(build, "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("  %-28s %14.4f %s\n", name, m.Value, m.Unit)
	}
	return res, nil
}

// timedPhase runs every client in a closed loop until the deadline: each
// client issues its next request only once the previous one returned.
// In a traced run each client alternates untraced and traced requests,
// so both halves see the same load and trace.overhead_frac compares like
// with like.
func timedPhase(ctx context.Context, w workload, o options, tr *tracer) ([]jobResult, time.Duration) {
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds) * time.Second)
	per := make([][]jobResult, w.clients())
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for seq := 0; time.Now().Before(deadline); seq++ {
				var jt *jobTrace
				if o.trace && seq%2 == 1 {
					jt = tr.newJob()
				}
				r := w.job(ctx, c, jt)
				r.traced = jt != nil
				per[c] = append(per[c], r)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var out []jobResult
	for _, rs := range per {
		out = append(out, rs...)
	}
	return out, elapsed
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
