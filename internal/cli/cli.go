// Package cli holds the flag surface shared by the analysis commands
// (tsscale, tsvalidate, tsaggregate, tsfigures): one binding registers the common
// flags — input, orientation, grid shape, engine budgets, metric
// selection, instrumentation — and one mapping turns them into
// repro.Option values, so the command flags and the library's plan
// options cannot drift apart.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/textplot"
)

// Flags is the shared analysis-command flag set; every field maps onto
// exactly one plan option (see PlanOptions).
type Flags struct {
	In          string
	Stream      string
	ElongSpill  int64
	Directed    bool
	Points      int
	MinDelta    int64
	Workers     int
	MaxInFlight int
	Metrics     string
	EngineStats bool
}

// Defaults parameterises Bind for the small per-command differences.
type Defaults struct {
	// Points is the default -points value.
	Points int
	// Metrics is the default -metrics value.
	Metrics string
	// MetricsHelp is the -metrics usage string.
	MetricsHelp string
}

// Bind registers the shared analysis flags on fs and returns the
// struct they populate.
func Bind(fs *flag.FlagSet, d Defaults) *Flags {
	f := &Flags{}
	fs.StringVar(&f.In, "in", "", "input stream file, any format — text, LSB binary, LSC columnar — parsed into memory (default: stdin)")
	fs.StringVar(&f.Stream, "stream", "",
		"input stream file handed to the plan by path (repro.WithStreamPath): columnar files (cmd/tsconvert) open memory-mapped, skip the engine's sort pass and let windowed passes read only their span; mutually exclusive with -in")
	fs.Int64Var(&f.ElongSpill, "elong-spill", 0,
		"cap resident bytes of the elongation pair-span arena; beyond it finished regions spill to an unlinked temp file re-read during scoring (0 = all in RAM; result is bit-identical)")
	fs.BoolVar(&f.Directed, "directed", false, "respect link orientation")
	fs.IntVar(&f.Points, "points", d.Points, "number of candidate periods to sweep")
	fs.Int64Var(&f.MinDelta, "min", 0, "smallest candidate period (default: stream resolution)")
	fs.StringVar(&f.Metrics, "metrics", d.Metrics, d.MetricsHelp)
	BindEngine(fs, &f.Workers, &f.MaxInFlight)
	fs.BoolVar(&f.EngineStats, "engine-stats", false,
		"print the engine's instrumentation after the run (period CSR builds, dedup hits, stream enumerations, peak resident periods, arena reuse)")
	return f
}

// BindEngine registers just the engine-budget flags (-workers,
// -max-inflight), for commands that share those without the full
// analysis surface.
func BindEngine(fs *flag.FlagSet, workers, maxInFlight *int) {
	fs.IntVar(workers, "workers", 0, "engine parallelism (0 = all CPUs)")
	fs.IntVar(maxInFlight, "max-inflight", 0,
		"max aggregation periods resident in the sweep engine (0 = engine default)")
}

// ServeFlags is the flag surface of the serving commands (tsserve):
// where to listen, where stream refs resolve, the queue's budgets, and
// the engine defaults filled into specs that leave theirs zero. The
// engine flags reuse the exact analysis-command binding (BindEngine),
// so operator budgets cannot drift from the CLI surface.
type ServeFlags struct {
	Addr         string
	StreamRoot   string
	MaxJobs      int
	TenantBudget int
	CacheEntries int
	Workers      int
	MaxInFlight  int

	// Distributed-execution surface. Coordinator switches the process
	// into coordinator mode; Join/Advertise/Name make it a worker that
	// registers with a coordinator; Shards, ShardTimeout and
	// ShardRetries shape the coordinator's dispatch.
	Coordinator  bool
	Join         string
	Advertise    string
	Name         string
	Shards       int
	ShardTimeout time.Duration
	ShardRetries int
}

// BindServe registers the serving flags on fs.
func BindServe(fs *flag.FlagSet) *ServeFlags {
	f := &ServeFlags{}
	fs.StringVar(&f.Addr, "addr", "localhost:7487", "address to listen on")
	fs.StringVar(&f.StreamRoot, "stream-root", "",
		"directory plan-spec stream refs resolve under; refs are confined to it and rejected when unset (inline-event specs always work)")
	fs.IntVar(&f.MaxJobs, "max-jobs", 0, "max admitted unfinished runs across all tenants (0 = 64)")
	fs.IntVar(&f.TenantBudget, "tenant-budget", 0, "max concurrently executing runs per tenant (0 = 2)")
	fs.IntVar(&f.CacheEntries, "cache-entries", 0, "completed results retained for cache hits (0 = 128)")
	BindEngine(fs, &f.Workers, &f.MaxInFlight)
	fs.BoolVar(&f.Coordinator, "coordinator", false,
		"serve as a shard coordinator: partition jobs across registered workers and fold their partials (byte-identical to a local run)")
	fs.StringVar(&f.Join, "join", "",
		"coordinator URL to register with as a worker (e.g. http://host:7487); keeps a heartbeat and re-registers after coordinator restarts")
	fs.StringVar(&f.Advertise, "advertise", "",
		"base URL the coordinator should dispatch shards to (default http://<addr>)")
	fs.StringVar(&f.Name, "name", "",
		"worker name for registration (default the advertise URL)")
	fs.IntVar(&f.Shards, "shards", 0,
		"chunks each scope's candidate grid splits into (0 = one per live worker)")
	fs.DurationVar(&f.ShardTimeout, "shard-timeout", 0,
		"per-attempt bound on one shard dispatch (0 = 60s)")
	fs.IntVar(&f.ShardRetries, "shard-retries", 0,
		"extra dispatch attempts per shard before the coordinator runs it locally (0 = 3)")
	return f
}

// ParseMetrics parses the -metrics flag, always including base and
// rejecting anything outside allowed (nil allows every metric).
func (f *Flags) ParseMetrics(base []repro.Metric, allowed []repro.Metric) ([]repro.Metric, error) {
	parsed, err := repro.ParseMetrics(f.Metrics)
	if err != nil {
		return nil, err
	}
	if allowed != nil {
		for _, m := range parsed {
			ok := false
			for _, a := range allowed {
				if m == a {
					ok = true
					break
				}
			}
			if !ok && !contains(base, m) {
				return nil, fmt.Errorf("metric %q is not supported by this command", m)
			}
		}
	}
	out := append([]repro.Metric(nil), base...)
	for _, m := range parsed {
		if !contains(out, m) {
			out = append(out, m)
		}
	}
	return out, nil
}

func contains(ms []repro.Metric, m repro.Metric) bool {
	for _, x := range ms {
		if x == m {
			return true
		}
	}
	return false
}

// PlanOptions maps the bound flags onto plan options. Commands append
// their own extras (refinement, selectors, adaptive mode) after these.
func (f *Flags) PlanOptions(metrics ...repro.Metric) []repro.Option {
	return []repro.Option{
		repro.WithDirected(f.Directed),
		repro.WithWorkers(f.Workers),
		repro.WithMaxInFlight(f.MaxInFlight),
		repro.WithGridPoints(f.Points),
		repro.WithMinDelta(f.MinDelta),
		repro.WithElongationSpill(f.ElongSpill),
		repro.WithMetrics(metrics...),
	}
}

// Input resolves the stream inputs of a command: with -stream the path
// is handed to the plan (repro.WithStreamPath — columnar files are
// mapped, never parsed) and the returned stream is nil; otherwise -in
// (or stdin) is parsed into memory as before. Append the returned
// options after PlanOptions when building the plan.
func (f *Flags) Input(stdin io.Reader) (*repro.Stream, []repro.Option, error) {
	if f.Stream != "" {
		if f.In != "" {
			return nil, nil, fmt.Errorf("-in and -stream are mutually exclusive")
		}
		return nil, []repro.Option{repro.WithStreamPath(f.Stream)}, nil
	}
	s, err := f.ReadStream(stdin)
	if err != nil {
		return nil, nil, err
	}
	return s, nil, nil
}

// ReadStream reads the link stream from -in, or from stdin when -in is
// unset, and rejects empty streams.
func (f *Flags) ReadStream(stdin io.Reader) (*repro.Stream, error) {
	var r io.Reader = stdin
	if f.In != "" {
		file, err := os.Open(f.In)
		if err != nil {
			return nil, err
		}
		defer file.Close()
		r = file
	}
	s := repro.NewStream()
	if err := s.ReadAny(r); err != nil {
		return nil, err
	}
	if s.NumEvents() == 0 {
		return nil, fmt.Errorf("no events read")
	}
	return s, nil
}

// SnapshotTables renders the snapshot-metric curves (repro.MetricDegree
// and friends) in the shared output format of tsscale and tsaggregate:
// one table per metric — one row per candidate period, one column per
// series — followed by the per-series stability scores.
func SnapshotTables(w io.Writer, curves []repro.MetricCurve) {
	for _, c := range curves {
		header := []string{"period (s)"}
		for _, ser := range c.Series {
			header = append(header, ser.Name)
		}
		rows := make([][]string, 0, len(c.Deltas))
		for i, d := range c.Deltas {
			row := []string{fmt.Sprintf("%d", d)}
			for _, ser := range c.Series {
				row = append(row, fmt.Sprintf("%.4g", ser.Values[i]))
			}
			rows = append(rows, row)
		}
		fmt.Fprintf(w, "\nsnapshot metric %s:\n", c.Metric)
		fmt.Fprint(w, textplot.Table(header, rows))
		stab := make([]string, 0, len(c.Series))
		for _, ser := range c.Series {
			stab = append(stab, fmt.Sprintf("%s %.3f", ser.Name, ser.Stability))
		}
		fmt.Fprintf(w, "stability (1 = plateau): %s\n", strings.Join(stab, ", "))
	}
}

// EngineStatsLine renders a run's engine instrumentation in the shared
// -engine-stats output format.
func EngineStatsLine(st repro.EngineStats) string {
	return fmt.Sprintf("engine: %d period CSR builds (+%d deduplicated), %d stream trip enumerations, peak %d periods resident, %d passes (%d sort-skipped); arenas: %d handed (%d reused), %d recycled",
		st.Builds, st.Dedups, st.StreamBuilds, st.MaxResident, st.Passes, st.SortSkips,
		st.ArenaHanded, st.ArenaReused, st.ArenaRecycled)
}
